#!/usr/bin/env bash
# Replays the committed mutation suite. Every testdata/mutations/*.patch
# in the tree is applied to a scratch copy of the source, and the gate it
# names must fail there. A mutation whose gate still passes means that
# gate no longer constrains the mutated code.
#
#   bash scripts/mutation.sh        (or: make mutation)
#
# A patch is a unified diff against the repository root, preceded by one
# header line naming its gate as a package and a `go test -run` pattern:
#
#   gate: ./internal/mining ^TestHashTreeMatchesSubsetScan$
#
# Every gate must pass on the unmutated copy first, so a gate that is
# already failing cannot count as a kill. Every hunk must apply exactly
# where its header says: a patch git can only place at an offset or with
# fuzz has gone stale, and may be mutating a line it was not written for.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/clean"
git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$tmp/clean"

mapfile -t patches < <(git ls-files --cached --others --exclude-standard '*/testdata/mutations/*.patch')
if [[ ${#patches[@]} -eq 0 ]]; then
	echo "mutation: no testdata/mutations/*.patch files found" >&2
	exit 1
fi

# gate prints the gate header of a patch as "package<TAB>pattern".
gate() {
	local line
	line=$(sed -n '1s/^gate: //p' "$1")
	if [[ -z $line || $line != *" "* ]]; then
		echo "mutation: $1 has no 'gate: <package> <pattern>' first line" >&2
		return 1
	fi
	printf '%s\t%s\n' "${line%% *}" "${line#* }"
}

# passes runs one gate in a source tree.
passes() {
	(cd "$1" && go test -count=1 -run "$3" "$2" >"$tmp/log" 2>&1)
}

for p in "${patches[@]}"; do
	IFS=$'\t' read -r pkg pat < <(gate "$p")
	if ! passes "$tmp/clean" "$pkg" "$pat"; then
		echo "mutation: gate $pkg $pat fails without any mutation:" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
done

survived=0
for p in "${patches[@]}"; do
	IFS=$'\t' read -r pkg pat < <(gate "$p")
	rm -rf "$tmp/mut"
	cp -a "$tmp/clean" "$tmp/mut"
	if ! (cd "$tmp/mut" && git apply -v "$root/$p") >"$tmp/apply" 2>&1; then
		echo "mutation: $p no longer applies:" >&2
		cat "$tmp/apply" >&2
		exit 1
	fi
	if grep -E '^Hunk #[0-9]+ .*(offset|fuzz)' "$tmp/apply" >&2; then
		echo "mutation: $p applies only away from its hunk headers; regenerate it" >&2
		exit 1
	fi
	if passes "$tmp/mut" "$pkg" "$pat"; then
		echo "SURVIVED  $p: $pkg -run '$pat' passes"
		survived=$((survived + 1))
	elif grep -q '\[build failed\]\|\[setup failed\]' "$tmp/log"; then
		echo "mutation: $p does not compile, so it tests nothing:" >&2
		cat "$tmp/log" >&2
		exit 1
	else
		echo "killed    $p by $pkg -run '$pat'"
	fi
done

if [[ $survived -gt 0 ]]; then
	echo "mutation: $survived of ${#patches[@]} mutations survived their gates" >&2
	exit 1
fi
echo "mutation: all ${#patches[@]} mutations killed"
