package store

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/wal"
)

// TestApplyDeltaSignatureConflictInBatch: a delta whose fact gives a
// relation a second signature fails alone; the valid delta merged into
// the same group commit still publishes, and the rejected fact never
// reaches a version.
func TestApplyDeltaSignatureConflictInBatch(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("prod", "R(a | b)\nS(b | 1)\n"); err != nil {
		t.Fatal(err)
	}
	m := s.mutatorFor("prod")
	m.mu.Lock()
	m.busy = true // park the bad delta in the queue
	m.mu.Unlock()
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var bad db.Delta
		bad.Insert(mustFact(t, "R(c | d, e)"))
		_, _, err := s.ApplyDelta("prod", bad)
		errs <- err
	}()
	for {
		m.mu.Lock()
		n := len(m.queue)
		m.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	m.busy = false
	m.mu.Unlock()
	var good db.Delta
	good.Insert(mustFact(t, "R(c | d)"))
	snap, _, err := s.ApplyDelta("prod", good)
	wg.Wait()
	if err != nil {
		t.Fatalf("valid delta failed with its batch: %v", err)
	}
	if badErr := <-errs; !errors.As(badErr, new(*db.SignatureError)) {
		t.Fatalf("conflicting delta: err = %v, want *db.SignatureError", badErr)
	}
	if snap.Version != 2 || !snap.DB.Has(mustFact(t, "R(c | d)")) || snap.DB.Len() != 3 {
		t.Fatalf("published v%d with %d facts:\n%s", snap.Version, snap.DB.Len(), snap.DB)
	}
}

// TestWALReplaySignatureConflictFailsClosed: a journal whose record
// gives a stored relation a second signature (written by a build that
// accepted them) stops replay with an error naming the record and the
// fact, for a delta record and for an upload record alike.
func TestWALReplaySignatureConflictFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records []wal.Record
		want    []string
	}{
		{"apply", []wal.Record{
			{Op: "put", Name: "prod", Version: 1, Facts: []string{"R(a | b)", "S(b | 1)"}},
			{Op: "apply", Name: "prod", Version: 2, Ops: []wal.OpRec{{K: "i", F: "R(c | d, e)"}}},
		}, []string{"record 2", "R(c | d, e)", "R[3,1]", "R[2,1]"}},
		{"put", []wal.Record{
			{Op: "put", Name: "prod", Version: 1, Facts: []string{"R(a | b)", "R(c | d, e)"}},
		}, []string{"record 1", "line 2", "R[3,1]", "R[2,1]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := wal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.records {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			s := New()
			n, err := s.ReplayWAL(dir)
			if err == nil {
				t.Fatalf("replay accepted a two-signature journal (%d records)", n)
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("replay error %q does not mention %q", err, frag)
				}
			}
			if snap, ok := s.Get("prod"); ok && snap.DB.Len() != 2 {
				t.Errorf("replay published the conflicting fact: %s", snap.DB)
			}
		})
	}
}
