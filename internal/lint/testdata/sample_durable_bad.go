//spurlint:path repro/internal/sample

// Positive determinism fixture: a model package that persists its own
// state. The measuring pass returns results; its callers (the root
// package's stored drivers) write them to the result store.
package fixture

import (
	// want determinism "repro/internal/expstore keeps durable state"
	"repro/internal/expstore"
	// want determinism "repro/internal/journal keeps durable state"
	"repro/internal/journal"
)

// Checkpoint writes a measured interval from inside the model.
func Checkpoint(w *journal.Writer, st *expstore.Store, k expstore.Key, b []byte) error {
	if err := w.Append(b); err != nil {
		return err
	}
	return st.Put(k, b)
}
