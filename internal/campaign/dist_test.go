package campaign

import (
	"bytes"
	"testing"

	"sosf"
	"sosf/internal/dist"
)

// TestGeneratedRunsShardEquivalent points the shard-equivalence checker at
// generated cases instead of hand-written fixtures: the six runs of
// TestCampaignCleanByDefault (`sos fuzz -seed 1 -runs 6`: join, kill,
// kill-component, churn, partition, loss and reconfigure timelines on 64
// and 128 nodes) must stream byte-identically through a 3-shard dist run.
func TestGeneratedRunsShardEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("six 100-round runs, each twice")
	}
	c := New(Config{Seed: 1, Runs: 6})
	for idx := 0; idx < c.cfg.Runs; idx++ {
		topo, err := c.buildRun(c.runID(idx))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.execute(topo, false)
		if err != nil {
			t.Fatalf("run %d: %v", idx, err)
		}
		var got bytes.Buffer
		_, err = dist.RunLocal(dist.Config{
			Source:  r.Source,
			Shards:  3,
			Threads: 1,
			Events:  []func(sosf.RoundEvent){sosf.JSONLSink(&got)},
		})
		if err != nil {
			t.Fatalf("run %d: RunLocal: %v", idx, err)
		}
		if want := bytes.Join(r.Lines, nil); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("run %d (%s): 3-shard stream diverges from the serial run\nsource:\n%s", idx, topo.Name, r.Source)
		}
	}
}
