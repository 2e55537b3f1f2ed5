package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingPlacementIsDeterministicAndOrderIndependent(t *testing.T) {
	a, err := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://n3", "http://n1", "http://n2", "http://n1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		ra, rb := a.Replicas(key, 2), b.Replicas(key, 2)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("peer order changed placement for %s: %v vs %v", key, ra, rb)
		}
		if ra[0] != a.Owner(key) {
			t.Fatalf("Replicas()[0] != Owner() for %s", key)
		}
	}
}

func TestRingReplicasAreDistinctAndClamped(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		reps := r.Replicas(key, 2)
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("replicas of %s not 2 distinct peers: %v", key, reps)
		}
		all := r.Replicas(key, 99)
		if len(all) != 3 {
			t.Fatalf("clamped replicas of %s = %v, want all 3 peers", key, all)
		}
	}
}

// TestRingBalance checks virtual nodes spread ownership: with 3 peers no
// peer should own a wildly disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for p, c := range counts {
		if c < n/6 || c > n/2+n/10 {
			t.Errorf("peer %s owns %d of %d keys — ring badly unbalanced: %v", p, c, n, counts)
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty peer name accepted")
	}
}
