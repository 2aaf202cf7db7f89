package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ubscache/internal/checkpoint"
)

func TestWriteFileAtomicBasics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "entry.json")
	want := []byte(`{"key":"abc"}`)
	if err := checkpoint.WriteFileAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", info.Mode().Perm())
	}

	// Overwrite replaces the content wholesale, shrinking included.
	short := []byte("x")
	if err := checkpoint.WriteFileAtomic(path, short); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, short) {
		t.Fatalf("after overwrite read %q, want %q", got, short)
	}
}

// TestWriteFileAtomicConcurrent hammers one path from many writers, each
// with a distinct self-consistent payload, while readers poll: a reader
// must only ever observe one writer's complete payload, never a mix or a
// truncation, and no staging temp files may survive.
func TestWriteFileAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	const writers = 8
	const rounds = 50
	payload := func(w int) []byte {
		// Large enough that a non-atomic write would be observable split.
		return bytes.Repeat([]byte{'a' + byte(w)}, 64<<10)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := payload(w)
			for r := 0; r < rounds; r++ {
				if err := checkpoint.WriteFileAtomic(path, p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				if os.IsNotExist(err) {
					continue // no writer has published yet
				}
				errs <- err
				return
			}
			if len(data) != 64<<10 {
				errs <- &truncatedError{n: len(data)}
				return
			}
			for _, b := range data {
				if b != data[0] {
					errs <- &truncatedError{n: -1}
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-readerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("staging file survived: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the published file", len(entries))
	}
}

type truncatedError struct{ n int }

func (e *truncatedError) Error() string {
	if e.n < 0 {
		return "reader observed a torn write (mixed payloads)"
	}
	return "reader observed a partial file"
}
