package spur

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// assertClaims checks the claims that read the given tables on rows at the
// tests' reduced scale: point values, against a claim's reduced-scale band
// when the list records one and its published band otherwise. Claims the
// list checks at the default scale only are left to the default-scale
// golden. A claim must pass, or fail when it is a known deviation with no
// reduced-scale band.
func assertClaims(t *testing.T, rows ClaimRows, tables ...string) {
	t.Helper()
	checked := 0
	for _, c := range Claims {
		if !slices.Contains(tables, c.Table) || c.DefaultOnly != "" {
			continue
		}
		lo, hi, want := c.Lo, c.Hi, "pass"
		if c.Test != nil {
			lo, hi = c.Test[0], c.Test[1]
		} else if c.Deviation != "" {
			want = "fail"
		}
		if v := c.check(rows, lo, hi, false); v.Result != want {
			t.Errorf("claim %s (%s): %q at %s, value %v, band [%v, %v]; want %s",
				c.ID, c.Text, v.Result, v.Obs.Row, v.Obs.V, lo, hi, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no claims read tables %v", tables)
	}
}

func TestClaimsWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, c := range Claims {
		if ids[c.ID] {
			t.Errorf("claim %s listed twice", c.ID)
		}
		ids[c.ID] = true
		if c.Text == "" || c.Paper == "" || c.of == nil || !(c.Lo <= c.Hi) {
			t.Errorf("claim %s incomplete: %+v", c.ID, c)
		}
		// Every table a claim reads is asserted by a shape test.
		if !slices.Contains([]string{"3.3", "3.4", "3.5", "4.1", "Cache", "Tds", "Dirty"}, c.Table) {
			t.Errorf("claim %s reads table %q, which no shape test asserts", c.ID, c.Table)
		}
		if c.Test != nil && c.DefaultOnly != "" {
			t.Errorf("claim %s has a reduced-scale band but is checked at the default scale only", c.ID)
		}
	}
}

func TestClaimVerdicts(t *testing.T) {
	obs := func(o ...Obs) func(ClaimRows) []Obs { return func(ClaimRows) []Obs { return o } }
	for _, tc := range []struct {
		name      string
		obs       []Obs
		deviation string
		result    string
		decided   string
		reads     string
	}{
		{"inside", []Obs{{"a", 1.0, 0.1}, {"b", 1.8, 0.1}}, "", "pass", "b", "pass"},
		{"straddles", []Obs{{"a", 1.0, 0.1}, {"b", 1.9, 0.2}}, "", "unresolved", "b", "unresolved"},
		{"outside", []Obs{{"a", 1.9, 0.2}, {"b", 2.5, 0.1}}, "", "fail", "b", "FAIL"},
		{"NaN", []Obs{{"a", 1.0, 0}, {"b", math.NaN(), 0}}, "", "fail", "b", "FAIL"},
		{"deviation holds", []Obs{{"a", 2.5, 0}}, "why", "fail", "a", "fail (known deviation)"},
		{"deviation gone", []Obs{{"a", 1.5, 0}}, "why", "pass", "a", "UNEXPECTED pass: the deviation is gone"},
		{"no rows", nil, "", "", "", "no rows"},
	} {
		c := Claim{ID: tc.name, Lo: 0.5, Hi: 2, Deviation: tc.deviation, of: obs(tc.obs...)}
		v := c.check(ClaimRows{}, c.Lo, c.Hi, true)
		if v.Result != tc.result || v.Obs.Row != tc.decided || v.String() != tc.reads {
			t.Errorf("%s: verdict %q decided by %q reads %q; want %q by %q reading %q",
				tc.name, v.Result, v.Obs.Row, v, tc.result, tc.decided, tc.reads)
		}
	}
	// Without intervals the point values decide.
	c := Claim{Lo: 0.5, Hi: 2, of: obs(Obs{"a", 1.9, 0.2})}
	if v := c.check(ClaimRows{}, c.Lo, c.Hi, false); v.Result != "pass" {
		t.Errorf("point value inside the band: %q", v.Result)
	}
}

// TestDirtySweepSeedZeroIsSeedOne: the dirty-policy runs read seed 0 as
// seed 1, as every other table does.
func TestDirtySweepSeedZeroIsSeedOne(t *testing.T) {
	zero, _ := dirtySweepCells(0, 0)
	one, _ := dirtySweepCells(0, 1)
	if !reflect.DeepEqual(zero, one) {
		t.Error("dirtySweepCells(0, 0) differs from dirtySweepCells(0, 1)")
	}
}
