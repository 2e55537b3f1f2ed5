package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	spur "repro"
	"repro/internal/expstore"
	"repro/internal/journal"
)

// microLayers times the journal and result-store layers every spurd node
// runs on, through their public calls: fsynced journal appends of a small
// and a large frame, and store puts, warm gets, and cold gets from a
// reopened store, of a run-sized result.
func microLayers() (map[string]float64, error) {
	dir, err := os.MkdirTemp("", "spurbench-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w, err := journal.Create(filepath.Join(dir, "probe.journal"), journal.Header{Kind: "spurbench-probe", Version: spur.Version})
	if err != nil {
		return nil, err
	}
	small, large := make([]byte, 256), make([]byte, 64*1024)
	var app []float64
	for i := 0; i < 500 && err == nil; i++ {
		for _, p := range [][]byte{small, large} {
			t0 := time.Now()
			if err = w.Append(p); err != nil {
				break
			}
			app = append(app, micros(t0))
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	sort.Float64s(app)

	cfg := spur.DefaultConfig()
	cfg.TotalRefs = 10_000
	payload, err := json.Marshal(spur.Run(cfg, spur.SLC()))
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "store")
	st, err := expstore.Open(storeDir, expstore.Options{})
	if err != nil {
		return nil, err
	}
	keys := make([]expstore.Key, 200)
	for i := range keys {
		if keys[i], err = expstore.KeyOf(spur.Version, "spurbench-probe", i); err != nil {
			return nil, err
		}
	}
	var put, warm, cold []float64
	for _, k := range keys {
		t0 := time.Now()
		if err := st.Put(k, payload); err != nil {
			return nil, err
		}
		put = append(put, micros(t0))
	}
	get := func(st *expstore.Store, into *[]float64) error {
		for _, k := range keys {
			t0 := time.Now()
			if _, ok := st.Get(k); !ok {
				return fmt.Errorf("store probe: key %.12s missing", k)
			}
			*into = append(*into, micros(t0))
		}
		sort.Float64s(*into)
		return nil
	}
	if err := get(st, &warm); err != nil {
		return nil, err
	}
	reopened, err := expstore.Open(storeDir, expstore.Options{})
	if err != nil {
		return nil, err
	}
	if err := get(reopened, &cold); err != nil {
		return nil, err
	}
	sort.Float64s(put)
	return map[string]float64{
		"journal.append_us_p50":    percentile(app, 0.50),
		"journal.append_us_p99":    percentile(app, 0.99),
		"expstore.put_us_p50":      percentile(put, 0.5),
		"expstore.get_mem_us_p50":  percentile(warm, 0.5),
		"expstore.get_disk_us_p50": percentile(cold, 0.5),
	}, nil
}

func micros(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
