package main

import (
	"net/http/httptest"
	"os"

	"nucleus/internal/server"
	"nucleus/internal/store"
)

// node is one in-process nucleusd on its own durable FS store.
type node struct {
	fs     *store.FS
	traced *tracedStore // nil in untraced runs
	srv    *server.Server
	ts     *httptest.Server
}

// startNode opens an FS store under dir and serves a nucleusd over it.
// With a tracer the store is wrapped in the tracing decorator.
func startNode(dir string, tr *tracer, cfg server.Config) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fs, err := store.OpenFS(dir)
	if err != nil {
		return nil, err
	}
	n := &node{fs: fs}
	cfg.Store = fs
	if tr != nil {
		cfg.Store, n.traced = wrapStore(fs, tr)
	}
	n.srv = server.New(cfg)
	n.ts = httptest.NewServer(n.srv)
	return n, nil
}

func (n *node) url() string { return n.ts.URL }

func (n *node) close() {
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.srv.Close()
	n.fs.Close()
}

// freshDir returns a new empty directory under root for one set-up.
func freshDir(root, name string) (string, error) {
	return os.MkdirTemp(root, name+"-")
}
