package crawler

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"focus/internal/relstore"
)

// TestCheckpointReturnsDistillError pins that a checkpoint after a failed
// distillation epoch reports the epoch's error instead of waiting for the
// pipeline to go idle. A failed epoch is never published, and the
// distiller skips every job queued after it, so snapshotted and published
// epochs never meet again: waiting for them spun forever, hanging both the
// in-crawl periodic checkpoint and System.Close.
func TestCheckpointReturnsDistillError(t *testing.T) {
	db, err := relstore.CreateFile(filepath.Join(t.TempDir(), "crawl.db"), relstore.Options{Frames: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := New(db, tinyModelOn(t, db), &stubFetcher{}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The state a failed epoch leaves behind: snapshotted, never published,
	// the failure recorded.
	epochErr := errors.New("injected distill failure")
	c.snapEpoch.Store(1)
	c.distillErr = epochErr

	done := make(chan error, 1)
	go func() { done <- c.Checkpoint() }()
	select {
	case err := <-done:
		if !errors.Is(err, epochErr) {
			t.Fatalf("Checkpoint = %v, want the recorded distill error", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Checkpoint still waiting for a failed epoch to publish after 3s")
	}
}
