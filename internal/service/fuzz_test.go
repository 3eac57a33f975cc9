package service

import (
	"bytes"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes through the request boundary the
// way /v2/jobs and the gateway do: strict decode of one batch entry,
// then ValidateJob. No input may panic the prepare step, and preparing
// the same entry twice must yield the same job label — the label names
// the build key, so a prepare step that drifted between calls would
// also drift between a gateway's validation and a backend's run. The
// seed corpus (testdata/fuzz/FuzzJobRequest) is every request body the
// service tests send, each as a one-job entry.
func FuzzJobRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var jr JobRequest
		if err := readJSON(bytes.NewReader(body), &jr); err != nil {
			return
		}
		verr := s.ValidateJob(jr)
		pj, err := s.prepareJob(jr)
		if (verr == nil) != (err == nil) {
			t.Fatalf("ValidateJob error %v, prepare error %v", verr, err)
		}
		if err != nil {
			return
		}
		again, err := s.prepareJob(jr)
		if err != nil {
			t.Fatalf("second prepare failed: %v", err)
		}
		if pj.job.Label != again.job.Label {
			t.Fatalf("labels differ across prepares: %q vs %q", pj.job.Label, again.job.Label)
		}
	})
}
