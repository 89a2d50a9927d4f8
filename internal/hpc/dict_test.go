package hpc

import "testing"

// TestStreamEventEntries pins the CUDA stream/event API coverage of the
// dictionaries: each entry must map to its hip* counterpart.
func TestStreamEventEntries(t *testing.T) {
	cases := []struct {
		table map[string]string
		from  string
		to    string
	}{
		{Functions, "cudaStreamCreateWithPriority", "hipStreamCreateWithPriority"},
		{Functions, "cudaStreamGetFlags", "hipStreamGetFlags"},
		{Functions, "cudaStreamGetPriority", "hipStreamGetPriority"},
		{Functions, "cudaStreamBeginCapture", "hipStreamBeginCapture"},
		{Functions, "cudaStreamEndCapture", "hipStreamEndCapture"},
		{Functions, "cudaStreamIsCapturing", "hipStreamIsCapturing"},
		{Functions, "cudaDeviceGetStreamPriorityRange", "hipDeviceGetStreamPriorityRange"},
		{Functions, "cudaStreamAttachMemAsync", "hipStreamAttachMemAsync"},
		{Functions, "cudaLaunchHostFunc", "hipLaunchHostFunc"},
		{Functions, "cudaEventRecordWithFlags", "hipEventRecordWithFlags"},
		{Types, "cudaStreamCaptureMode", "hipStreamCaptureMode"},
		{Types, "cudaStreamCaptureStatus", "hipStreamCaptureStatus"},
		{Types, "cudaGraph_t", "hipGraph_t"},
		{Types, "cudaHostFn_t", "hipHostFn_t"},
		{Enums, "cudaStreamCaptureModeGlobal", "hipStreamCaptureModeGlobal"},
		{Enums, "cudaStreamCaptureModeThreadLocal", "hipStreamCaptureModeThreadLocal"},
		{Enums, "cudaStreamCaptureModeRelaxed", "hipStreamCaptureModeRelaxed"},
		{Enums, "cudaStreamCaptureStatusNone", "hipStreamCaptureStatusNone"},
		{Enums, "cudaStreamCaptureStatusActive", "hipStreamCaptureStatusActive"},
		{Enums, "cudaEventInterprocess", "hipEventInterprocess"},
		{Enums, "cudaEventRecordDefault", "hipEventRecordDefault"},
		{Enums, "cudaEventRecordExternal", "hipEventRecordExternal"},
	}
	for _, tc := range cases {
		if got := tc.table[tc.from]; got != tc.to {
			t.Errorf("%s -> %q, want %q", tc.from, got, tc.to)
		}
	}
}

func TestDictionariesDisjointValues(t *testing.T) {
	// No CUDA name maps to another CUDA name (substitution must be a
	// fixpoint: applying the dictionary twice equals applying it once).
	all := map[string]string{}
	for _, m := range []map[string]string{Functions, Types, Enums} {
		for k, v := range m {
			all[k] = v
		}
	}
	for from, to := range all {
		if _, isKey := all[to]; isKey && to != from {
			t.Errorf("dictionary not idempotent: %s -> %s which is also a key", from, to)
		}
	}
}

func TestDictionariesNonEmptyTargets(t *testing.T) {
	for _, m := range []map[string]string{Functions, Types, Enums} {
		for k, v := range m {
			if v == "" {
				t.Errorf("empty translation for %s", k)
			}
		}
	}
	for k, v := range Headers {
		if v == "" || k == v {
			t.Errorf("suspicious header mapping %s -> %s", k, v)
		}
	}
}
