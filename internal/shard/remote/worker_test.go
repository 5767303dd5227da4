package remote

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	ossm "github.com/ossm-mining/ossm"
)

// TestWorkerRejectsBadBoundsItemsets sends /shard/v1/bounds bodies the
// coordinator would never forward — an empty itemset, items at and far
// past the index domain — straight to a worker. Each must come back as a
// 400 with an error body, not a handler panic that drops the connection,
// and a well-formed request on the same worker must still succeed.
func TestWorkerRejectsBadBoundsItemsets(t *testing.T) {
	_, ix := fixture(t, 400, 8, ossm.Random, 3)
	rf := startRemoteFleet(t, "ix", ix, nil, 1, ClientConfig{})
	url := rf.servers[0].URL + "/shard/v1/bounds"
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", body, err)
		}
		return resp.StatusCode, out
	}

	for _, sets := range []string{
		`[[]]`,
		`[[1000000]]`,
		fmt.Sprintf(`[[%d]]`, ix.NumItems()),
		fmt.Sprintf(`[[0,1],[2,%d]]`, ix.NumItems()),
	} {
		code, out := post(`{"index":"ix","itemsets":` + sets + `}`)
		if code != http.StatusBadRequest {
			t.Errorf("itemsets %s: status %d, want 400 (%v)", sets, code, out)
		}
		if msg, _ := out["error"].(string); msg == "" {
			t.Errorf("itemsets %s: no error message in %v", sets, out)
		}
	}

	code, out := post(`{"index":"ix","itemsets":[[0,1],[2]]}`)
	if code != http.StatusOK {
		t.Fatalf("valid request: status %d (%v)", code, out)
	}
	bounds, _ := out["bounds"].([]any)
	want := ix.UpperBoundBatch([]ossm.Itemset{ossm.NewItemset(0, 1), ossm.NewItemset(2)}, nil)
	if len(bounds) != len(want) {
		t.Fatalf("valid request: %d bounds, want %d", len(bounds), len(want))
	}
	for i, b := range bounds {
		if int64(b.(float64)) != want[i] {
			t.Errorf("bound %d = %v, want %d", i, b, want[i])
		}
	}
}
