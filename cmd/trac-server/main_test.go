package main

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"trac"
	tracclient "trac/client/trac"
	"trac/internal/demo"
	"trac/internal/server"
)

// TestServeDurableDir is the -dir deployment end to end: serve a directory,
// write through the wire, drain, checkpoint and close, reopen, rows present.
func TestServeDurableDir(t *testing.T) {
	dir := t.TempDir()
	db, err := demo.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	c, err := tracclient.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE T (a BIGINT, src TEXT)`,
		`INSERT INTO T VALUES (1, 's0'), (2, 's1'), (3, 's0')`,
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := closeDB(db, true); err != nil {
		t.Fatal(err)
	}

	db2, err := demo.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if e := db2.Engine().Epoch(); e != 2 {
		t.Errorf("reopened at epoch %d, want the drain's checkpoint (2)", e)
	}
	res, err := db2.Query(`SELECT COUNT(*) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 3 {
		t.Errorf("reopened directory holds %d rows, want 3", n)
	}
}

func TestDirRejectsShards(t *testing.T) {
	if _, err := demo.Open(t.TempDir(), 3); !errors.Is(err, trac.ErrShardedDir) {
		t.Fatalf("demo.Open(dir, 3 shards) = %v, want ErrShardedDir", err)
	}
}
