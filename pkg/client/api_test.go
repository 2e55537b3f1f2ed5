package client

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestRunRequestNormalizeHardened: hardened options the runner cannot
// honour are rejected before a request is keyed, journaled or computed.
func TestRunRequestNormalizeHardened(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *HardenedOptions
		want string // error substring; empty means accepted
	}{
		{"absent", nil, ""},
		{"zero", &HardenedOptions{}, ""},
		{"all set", &HardenedOptions{AuditEvery: 500, DeadlineMS: 1000, TraceTail: 64}, ""},
		{"largest tail", &HardenedOptions{TraceTail: machine.MaxTraceTail}, ""},
		{"negative audit", &HardenedOptions{AuditEvery: -1}, "audit_every"},
		{"negative deadline", &HardenedOptions{DeadlineMS: -5}, "deadline_ms"},
		{"negative tail", &HardenedOptions{TraceTail: -1}, "trace_tail"},
		{"tail past one batch", &HardenedOptions{TraceTail: machine.MaxTraceTail + 1}, "trace_tail"},
		{"huge tail", &HardenedOptions{TraceTail: 1 << 40}, "trace_tail"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := RunRequest{Refs: 1000, Hardened: tc.h}
			err := req.Normalize()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("err = %v, want one naming %s", err, tc.want)
			}
		})
	}
}
