package server

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// Server-side durability: when Config.DataDir is set, every session
// created through the API is backed by a WAL + snapshot directory under
// <DataDir>/sessions/<id>/, its rules text persisted alongside
// (programFile), so a restarted server recovers its sessions — store,
// epoch and program — instead of starting empty. No solver state is
// persisted: a recovered session's first solve is cold.
//
// Lifecycle: RecoverSessions (called once at boot, before serving)
// reopens every session directory; CheckpointAll compacts each durable
// session's log (the serve loop runs it on a timer and at shutdown);
// Close releases every WAL after a final flush. DELETE on a session
// removes its directory; LRU eviction only closes the WAL — the
// directory stays and the session returns at the next boot.

// programFile holds a durable session's rules text inside its data
// directory, so boot recovery can re-apply the program (rules are not
// store state and do not flow through the WAL).
const programFile = "program.rules"

// sessionsDir returns the root of the per-session data directories.
func (s *Server) sessionsDir() string { return filepath.Join(s.dataDir, "sessions") }

// Durable reports whether the server persists sessions.
func (s *Server) Durable() bool { return s.dataDir != "" }

// enableSessionDurability makes a freshly created session durable and
// persists its program text. Called before the session is published.
func (s *Server) enableSessionDurability(ss *session, rules string) error {
	dir := filepath.Join(s.sessionsDir(), ss.id)
	if err := ss.sess.EnableDurability(dir); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, programFile), []byte(rules), 0o644); err != nil {
		ss.sess.Close()
		return err
	}
	return ss.sess.Sync()
}

// RecoverSessions reopens every session directory under DataDir,
// replaying each session's snapshot + WAL suffix and re-applying its
// persisted program. It returns the number of sessions recovered and
// fails on the first directory that cannot be recovered — a corrupt
// store is a loud error, never a silently empty session. A server
// without a DataDir recovers nothing.
func (s *Server) RecoverSessions() (int, error) {
	if s.dataDir == "" {
		return 0, nil
	}
	root := s.sessionsDir()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return 0, fmt.Errorf("server: data dir: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, fmt.Errorf("server: data dir: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		sess, err := core.OpenSession(filepath.Join(root, id))
		if err != nil {
			return n, fmt.Errorf("server: recovering session %s: %w", id, err)
		}
		rules, err := os.ReadFile(filepath.Join(root, id, programFile))
		if err != nil && !os.IsNotExist(err) {
			sess.Close()
			return n, fmt.Errorf("server: recovering session %s: %w", id, err)
		}
		if len(rules) > 0 {
			if err := sess.LoadProgramText(string(rules)); err != nil {
				sess.Close()
				return n, fmt.Errorf("server: recovering session %s: program: %w", id, err)
			}
		}
		ss := &session{id: id, sess: sess}
		ss.publish(nil, "")
		if evicted := s.sessions.put(ss); evicted != nil {
			s.closeEvicted(evicted)
		}
		n++
	}
	return n, nil
}

// CheckpointAll checkpoints every durable session: snapshot written and
// WAL truncated to the suffix. Sessions are checkpointed one at a time,
// each under its own mutex, so solves and mutations on other sessions
// proceed; a session's own writers and solves wait on its mutex for the
// whole checkpoint, snapshot write included. The first error is
// returned, but every session is attempted.
func (s *Server) CheckpointAll() error {
	var first error
	for _, ss := range s.sessions.all() {
		ss.mu.Lock()
		if ss.sess.Durable() {
			if err := ss.sess.Checkpoint(); err != nil && first == nil {
				first = err
			}
		}
		ss.mu.Unlock()
	}
	return first
}

// Close flushes and releases every durable session's WAL. The server
// must not serve requests afterwards.
func (s *Server) Close() error {
	var first error
	for _, ss := range s.sessions.all() {
		ss.mu.Lock()
		if err := ss.sess.Close(); err != nil && first == nil {
			first = err
		}
		ss.mu.Unlock()
	}
	return first
}

// closeEvicted releases an LRU-evicted session's WAL (after a final
// flush) without deleting its directory: the session is gone from the
// table but its data survives for the next boot's recovery.
// The close runs in the background: an in-flight solve on the evicted
// session may hold ss.mu for seconds, and the create request that
// triggered the eviction must not wait behind it.
func (s *Server) closeEvicted(ss *session) {
	go func() {
		ss.mu.Lock()
		defer ss.mu.Unlock()
		ss.sess.Close()
	}()
}

// removeSessionData deletes a dropped session's data directory, if the
// server is durable.
func (s *Server) removeSessionData(id string) {
	if s.dataDir == "" {
		return
	}
	os.RemoveAll(filepath.Join(s.sessionsDir(), id))
}
