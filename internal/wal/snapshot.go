package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// Snapshot files persist one complete AppenderState at a sequence number,
// so recovery can restart replay from there instead of from record 1:
//
//	snapshot := magic "OSSMSNP1"
//	          | u64 seq | u64 total
//	          | u32 numItems | u32 pageSize | u32 maxSegments | u32 compactAt
//	          | u32 algorithm | u64 seed
//	          | u32 bubbleLen | bubbleLen × u32 item
//	          | u32 curN | u32 rowCount
//	          | [ index blob ]                    (rowCount > 0)
//	          | numItems × u32 curCell
//	          | u32 crc32c(everything above)
//
// The index blob is the completed rows wrapped as an Index and serialized
// with Index.WriteTo — the exact Save/ReadIndex format — so a snapshot
// doubles as a servable index prefix and the reader reuses ReadIndex's
// validation (including its ErrTruncated/ErrNotIndex classification).
// Its length is implied by the header: 32 + 4·rowCount·numItems bytes.

var snapMagic = [8]byte{'O', 'S', 'S', 'M', 'S', 'N', 'P', '1'}

// indexBlobOverhead is the fixed part of an Index.WriteTo serialization:
// index magic + u64 numTx + map magic + map header.
const indexBlobOverhead = 8 + 8 + 8 + 8

// ErrBadSnapshot reports a snapshot file that fails validation — short,
// CRC-damaged, or structurally impossible. Recovery skips it and falls
// back to the next-newest snapshot. Truncation additionally wraps
// ossm.ErrTruncated, so callers can tell a torn write from bit rot.
var ErrBadSnapshot = errors.New("wal: bad snapshot")

func appendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// encodeSnapshot serializes one appender state captured at seq.
func encodeSnapshot(seq uint64, st ossm.AppenderState) ([]byte, error) {
	buf := append([]byte(nil), snapMagic[:]...)
	buf = appendUint64(buf, seq)
	buf = appendUint64(buf, uint64(st.Total))
	buf = appendUint32(buf, uint32(st.NumItems))
	buf = appendUint32(buf, uint32(st.PageSize))
	buf = appendUint32(buf, uint32(st.MaxSegments))
	buf = appendUint32(buf, uint32(st.CompactAt))
	buf = appendUint32(buf, uint32(st.Algorithm))
	buf = appendUint64(buf, uint64(st.Seed))
	buf = appendUint32(buf, uint32(len(st.Bubble)))
	for _, it := range st.Bubble {
		buf = appendUint32(buf, uint32(it))
	}
	buf = appendUint32(buf, uint32(st.CurN))
	buf = appendUint32(buf, uint32(len(st.Rows)))
	if len(st.Rows) > 0 {
		m, err := ossm.NewMap(st.Rows)
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot rows: %w", err)
		}
		ix, err := ossm.IndexFromMap(m, int(st.Total))
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot index: %w", err)
		}
		var blob bytes.Buffer
		if _, err := ix.WriteTo(&blob); err != nil {
			return nil, fmt.Errorf("wal: snapshot index: %w", err)
		}
		if want := indexBlobOverhead + 4*len(st.Rows)*st.NumItems; blob.Len() != want {
			return nil, fmt.Errorf("wal: snapshot index blob is %d bytes, expected %d", blob.Len(), want)
		}
		buf = append(buf, blob.Bytes()...)
	}
	for _, c := range st.Cur {
		buf = appendUint32(buf, c)
	}
	return appendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// snapCursor walks the fixed-width fields of a snapshot, classifying a
// premature end as truncation.
type snapCursor struct {
	data []byte
	off  int
	err  error
}

func (c *snapCursor) need(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.data)-c.off < n {
		c.err = fmt.Errorf("%w: %w: %s at offset %d", ErrBadSnapshot, ossm.ErrTruncated, what, c.off)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *snapCursor) u32(what string) uint32 {
	b := c.need(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *snapCursor) u64(what string) uint64 {
	b := c.need(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// decodeSnapshot parses and CRC-checks a snapshot file. The returned
// state is unvalidated beyond structure — the caller pushes it through
// RestoreAppender, which enforces the appender invariants.
func decodeSnapshot(data []byte) (uint64, ossm.AppenderState, error) {
	var st ossm.AppenderState
	c := &snapCursor{data: data}
	magic := c.need(8, "magic")
	if c.err != nil {
		return 0, st, c.err
	}
	if !bytes.Equal(magic, snapMagic[:]) {
		return 0, st, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	seq := c.u64("sequence number")
	st.Total = int64(c.u64("transaction total"))
	st.NumItems = int(c.u32("numItems"))
	st.PageSize = int(c.u32("pageSize"))
	st.MaxSegments = int(c.u32("maxSegments"))
	st.CompactAt = int(c.u32("compactAt"))
	st.Algorithm = ossm.Algorithm(c.u32("algorithm"))
	st.Seed = int64(c.u64("seed"))
	bubbleLen := int(c.u32("bubble length"))
	if c.err != nil {
		return 0, st, c.err
	}
	// Bound every header-declared count by the bytes actually present
	// before allocating for it.
	if rem := (len(data) - c.off) / 4; bubbleLen > rem {
		return 0, st, fmt.Errorf("%w: bubble of %d items in %d remaining bytes", ErrBadSnapshot, bubbleLen, len(data)-c.off)
	}
	if bubbleLen > 0 {
		st.Bubble = make([]dataset.Item, bubbleLen)
		for i := range st.Bubble {
			st.Bubble[i] = dataset.Item(c.u32("bubble item"))
		}
	}
	st.CurN = int(c.u32("partial page count"))
	rowCount := int(c.u32("row count"))
	if c.err != nil {
		return 0, st, c.err
	}
	if st.NumItems <= 0 || st.NumItems > 1<<24 || rowCount < 0 || rowCount > 1<<24 {
		return 0, st, fmt.Errorf("%w: %d rows × %d items", ErrBadSnapshot, rowCount, st.NumItems)
	}
	if rowCount > 0 {
		blobLen := indexBlobOverhead + 4*rowCount*st.NumItems
		blob := c.need(blobLen, "index blob")
		if c.err != nil {
			return 0, st, c.err
		}
		ix, err := ossm.ReadIndex(bytes.NewReader(blob))
		if err != nil {
			if errors.Is(err, ossm.ErrTruncated) {
				return 0, st, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
			}
			return 0, st, fmt.Errorf("%w: index blob: %w", ErrBadSnapshot, err)
		}
		m := ix.Map()
		if m.NumItems() != st.NumItems || m.NumSegments() != rowCount {
			return 0, st, fmt.Errorf("%w: index blob is %d×%d, header says %d×%d",
				ErrBadSnapshot, m.NumSegments(), m.NumItems(), rowCount, st.NumItems)
		}
		st.Rows = make([][]uint32, rowCount)
		for s := range st.Rows {
			st.Rows[s] = m.AppendSegmentRow(make([]uint32, 0, st.NumItems), s)
		}
	}
	st.Cur = make([]uint32, st.NumItems)
	for i := range st.Cur {
		st.Cur[i] = c.u32("partial page cell")
	}
	body := c.off
	wantCRC := c.u32("checksum")
	if c.err != nil {
		return 0, st, c.err
	}
	if c.off != len(data) {
		return 0, st, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-c.off)
	}
	if got := crc32.Checksum(data[:body], castagnoli); got != wantCRC {
		return 0, st, fmt.Errorf("%w: CRC %08x != %08x", ErrBadSnapshot, got, wantCRC)
	}
	return seq, st, nil
}

// readAll drains a File into memory.
func readAll(f File) ([]byte, error) {
	defer f.Close()
	return io.ReadAll(f)
}
