package store

import (
	"testing"

	"repro/internal/kgen"
)

// TestMemoryBytesPerFactBudget is the store's memory regression gate:
// on the clustered workload at 30k facts the self-reported footprint
// (fact table, posting indexes, dictionary, change log) must stay under
// 400 B/fact. The dense posting layout sits near 300; the hash-map
// layout it replaced sat above 500.
func TestMemoryBytesPerFactBudget(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 5000, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
	st := New()
	if err := st.AddGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if st.Len() < 30000 {
		t.Fatalf("workload holds %d facts, want at least 30000", st.Len())
	}
	m := st.MemoryStats()
	t.Logf("%d facts, %d terms, %.1f B/fact", st.Len(), m.Terms, m.BytesPerFact)
	if m.BytesPerFact > 400 {
		t.Errorf("store footprint %.1f B/fact over the 400 B/fact budget", m.BytesPerFact)
	}
}
