package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
)

// record is one completed operation: the key naming what was asked for and
// the SHA-256 of what came back, or failed when the operation errored or
// returned a quarantined result.
type record struct {
	key    string
	sum    string
	failed bool
}

func newRecord(key string, body []byte, err error) record {
	if err != nil {
		return record{key: key, failed: true}
	}
	s := sha256.Sum256(body)
	return record{key: key, sum: hex.EncodeToString(s[:])}
}

// ledger is a run's correctness check: every output for a key must be
// byte-identical to the first output seen for that key. It counts the
// operations attempted and those that failed or disagreed.
type ledger struct {
	first     map[string]string
	attempted int
	failed    int
}

func newLedger() *ledger { return &ledger{first: map[string]string{}} }

func (l *ledger) add(recs ...record) {
	for _, r := range recs {
		l.attempted++
		if r.failed {
			l.failed++
			continue
		}
		if sum, ok := l.first[r.key]; !ok {
			l.first[r.key] = r.sum
		} else if sum != r.sum {
			l.failed++
		}
	}
}

// digest is the SHA-256 of the sorted (key, output SHA-256) list.
func (l *ledger) digest() string {
	keys := make([]string, 0, len(l.first))
	for k := range l.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, l.first[k])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so spreads read the same in both.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
