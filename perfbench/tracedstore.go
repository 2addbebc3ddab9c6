package main

import (
	"errors"
	"sync/atomic"

	"nucleus/internal/store"
)

// tracedStore is the store.Store decorator the traced run injects into
// each server. It times every call as a span under the writer's
// in-flight operation and counts bytes, edits and errors. It forwards
// the optional store.ReplicationSource and store.ThreadedLoader
// capabilities exactly when the wrapped store has them (see wrapStore),
// so replication and recovery behave as they do unwrapped.
type tracedStore struct {
	inner store.Store
	tr    *tracer

	walBytes atomic.Int64 // batch + commit frame bytes
	edits    atomic.Int64 // edits in begun batches
	errors   atomic.Int64
}

// wrapStore decorates inner. The returned value implements
// store.ReplicationSource and store.ThreadedLoader if and only if inner
// does.
func wrapStore(inner store.Store, tr *tracer) (store.Store, *tracedStore) {
	t := &tracedStore{inner: inner, tr: tr}
	rs, isRS := inner.(store.ReplicationSource)
	tl, isTL := inner.(store.ThreadedLoader)
	switch {
	case isRS && isTL:
		return struct {
			*tracedStore
			replicationSource
			threadedLoader
		}{t, replicationSource{t, rs}, threadedLoader{t, tl}}, t
	case isRS:
		return struct {
			*tracedStore
			replicationSource
		}{t, replicationSource{t, rs}}, t
	case isTL:
		return struct {
			*tracedStore
			threadedLoader
		}{t, threadedLoader{t, tl}}, t
	}
	return t, t
}

// begin opens a store span under the writer's current operation. Full
// snapshots are parented only under an ingest (upload or generate):
// otherwise they come from the background compactor, which no client
// request waits on directly.
func (t *tracedStore) begin(op string, snapshot bool) *active {
	if !t.tr.enabled() {
		return nil
	}
	cur := t.tr.current.Load()
	if snapshot && cur != nil && !cur.ingest {
		cur = nil
	}
	name := "store." + op
	if cur == nil {
		return t.tr.begin(name, nil, t.tr.newReq())
	}
	return t.tr.begin(name, cur, 0)
}

func (t *tracedStore) fail(err error) error {
	if err != nil {
		t.errors.Add(1)
	}
	return err
}

func (t *tracedStore) SaveSnapshot(name string, snap *store.Snapshot) error {
	sp := t.begin("snapshot", true)
	defer sp.end()
	return t.fail(t.inner.SaveSnapshot(name, snap))
}

func (t *tracedStore) BeginBatch(name string, b *store.Batch) (int, error) {
	sp := t.begin("begin", false)
	defer sp.end()
	n, err := t.inner.BeginBatch(name, b)
	if err == nil && t.tr.enabled() {
		t.walBytes.Add(int64(n))
		t.edits.Add(int64(len(b.Edits)))
	}
	return n, t.fail(err)
}

func (t *tracedStore) CommitBatch(name string, version uint64) (int, error) {
	sp := t.begin("commit", false)
	defer sp.end()
	n, err := t.inner.CommitBatch(name, version)
	if err == nil && t.tr.enabled() {
		t.walBytes.Add(int64(n))
	}
	return n, t.fail(err)
}

func (t *tracedStore) Load(name string) (*store.Snapshot, []store.CommittedBatch, error) {
	sp := t.begin("load", false)
	defer sp.end()
	snap, batches, err := t.inner.Load(name)
	if !errors.Is(err, store.ErrNotFound) {
		t.fail(err)
	}
	return snap, batches, err
}

func (t *tracedStore) List() ([]string, error) { return t.inner.List() }

func (t *tracedStore) Delete(name string) error { return t.fail(t.inner.Delete(name)) }

func (t *tracedStore) WALSize(name string) int64 { return t.inner.WALSize(name) }

func (t *tracedStore) Durable() bool { return t.inner.Durable() }

func (t *tracedStore) Close() error { return t.inner.Close() }

// replicationSource forwards store.ReplicationSource: the primary's side
// of a replica pull.
type replicationSource struct {
	t  *tracedStore
	rs store.ReplicationSource
}

func (r replicationSource) SnapshotImage(name string) ([]byte, error) {
	sp := r.t.begin("snapshot_image", false)
	defer sp.end()
	b, err := r.rs.SnapshotImage(name)
	return b, r.t.fail(err)
}

func (r replicationSource) WALImage(name string, offset, limit int64) ([]byte, int64, error) {
	sp := r.t.begin("wal_image", false)
	defer sp.end()
	b, size, err := r.rs.WALImage(name, offset, limit)
	return b, size, r.t.fail(err)
}

// threadedLoader forwards store.ThreadedLoader: startup recovery.
type threadedLoader struct {
	t  *tracedStore
	tl store.ThreadedLoader
}

func (l threadedLoader) LoadThreads(name string, threads int) (*store.Snapshot, []store.CommittedBatch, error) {
	sp := l.t.begin("load", false)
	defer sp.end()
	snap, batches, err := l.tl.LoadThreads(name, threads)
	if !errors.Is(err, store.ErrNotFound) {
		l.t.fail(err)
	}
	return snap, batches, err
}
