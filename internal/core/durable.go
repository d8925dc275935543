package core

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/wal"
)

// OpenSession opens a durable session rooted at dir, recovering the
// persisted store (snapshot + WAL replay) if the directory holds one
// and creating an empty durable session otherwise. The program is not
// persisted — load rules as usual after opening. Call Checkpoint to
// compact the log and Close before discarding the session.
func OpenSession(dir string) (*Session, error) {
	l, st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	return &Session{st: st, prog: &logic.Program{}, wal: l, dataDir: dir}, nil
}

// EnableDurability makes a live in-memory session durable in a fresh
// directory: the current store is checkpointed there and every later
// mutation flows through the WAL. The live session keeps its solve
// engine, but nothing of it is written to dir: a session reopened from
// dir solves cold first. It fails if the directory already
// holds a persisted store (open that with OpenSession) or if the
// session is already durable.
func (s *Session) EnableDurability(dir string) error {
	if s.wal != nil {
		return fmt.Errorf("core: session already durable in %s", s.dataDir)
	}
	l, err := wal.Attach(dir, s.st, wal.Options{})
	if err != nil {
		return err
	}
	s.wal = l
	s.dataDir = dir
	return nil
}

// Durable reports whether the session persists its store.
func (s *Session) Durable() bool { return s.wal != nil }

// DataDir returns the session's durable directory ("" when volatile).
func (s *Session) DataDir() string { return s.dataDir }

// RecoveryStats reports what opening the durable session found (nil for
// volatile sessions).
func (s *Session) RecoveryStats() *wal.RecoveryStats {
	if s.wal == nil {
		return nil
	}
	st := s.wal.Stats()
	return &st
}

// Sync flushes and fsyncs the WAL tail: every change up to now survives
// a crash. A no-op for volatile sessions.
func (s *Session) Sync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Checkpoint compacts the session's durable state: it snapshots the
// store at a pinned epoch (ingest is never blocked for more than the
// pin's memcpy) and truncates the WAL to the suffix. Only the store is
// persisted; a reopened session's first solve grounds and solves cold.
// Fails for volatile sessions.
func (s *Session) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("core: session is not durable (no data directory)")
	}
	return s.wal.Checkpoint()
}

// Close releases the session's durable state after a final WAL flush
// and fsync. The session remains usable in memory but is no longer
// journaled. A no-op for volatile sessions.
func (s *Session) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	s.dataDir = ""
	return err
}
