package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestStreamFile checks the telemetry file writer: the stream lands on disk
// whole, and an encoder error, a failed flush and an uncreatable path each
// come back as an error, which ccbench turns into exit status 1.
func TestStreamFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.jsonl")
	if err := streamFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "{\"i\":0}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "{\"i\":0}\n" {
		t.Fatalf("file holds %q, %v", b, err)
	}

	boom := errors.New("boom")
	if err := streamFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("encoder error: got %v, want %v", err, boom)
	}
	if err := streamFile(filepath.Join(path, "sub"), func(io.Writer) error { return nil }); err == nil {
		t.Error("uncreatable path: no error")
	}
	// /dev/full accepts the buffered write and fails the flush with ENOSPC.
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := streamFile("/dev/full", func(w io.Writer) error {
			_, err := io.WriteString(w, "x")
			return err
		}); err == nil {
			t.Error("flush to a full device: no error")
		}
	}
}
