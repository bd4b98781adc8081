package main

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/css"
	"jupiter/internal/server"
	"jupiter/internal/wire"
)

// liveCapture runs two writers against an in-process jupiterd and captures
// the document's serialization the way the benchmark runner does: every
// broadcast either writer receives, ordered by global sequence number.
func liveCapture(t *testing.T) capturedDoc {
	t.Helper()
	eng := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	})
	var mu sync.Mutex
	var msgs []css.ServerMsg
	capture := func(f *wire.Server) {
		if f.Msg.Kind == css.MsgBroadcast {
			mu.Lock()
			msgs = append(msgs, f.Msg)
			mu.Unlock()
		}
	}
	var cls [2]*client.Client
	for i := range cls {
		cl, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: "replay-test", OnServerFrame: capture})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cls[i] = cl
	}
	// Concurrent bursts from both writers, then some deletes.
	for k := 0; k < 20; k++ {
		for i, cl := range cls {
			if err := cl.Insert(rune('a'+i), k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, cl := range cls {
		if err := cl.Delete(3); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, cl := range cls {
		if err := cl.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, cl := range cls {
		if err := cl.WaitServerSeq(ctx, 42); err != nil {
			t.Fatal(err)
		}
	}
	if cls[0].Text() != cls[1].Text() {
		t.Fatal("live writers diverged")
	}
	mu.Lock()
	defer mu.Unlock()
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
	return capturedDoc{
		Doc:     "replay-test",
		Clients: []int32{int32(cls[0].ID()), int32(cls[1].ID())},
		Text:    cls[0].Text(),
		Msgs:    msgs,
	}
}

// TestReplayMatchesLive: the replayed serialization equals the captured
// order and every replayed document equals the live one.
func TestReplayMatchesLive(t *testing.T) {
	d := liveCapture(t)
	if len(d.Msgs) != 42 {
		t.Fatalf("captured %d broadcasts, want 42", len(d.Msgs))
	}
	var tot totals
	if err := tot.replay(d); err != nil {
		t.Fatalf("replay of a live capture failed: %v", err)
	}
	m := tot.metrics()
	for _, name := range []string{"css.server_receive_us", "wire.bytes_per_op", "statespace.server_states", "css.join_ms"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}

	// Negative controls: a reordered capture and a wrong live text.
	swapped := d
	swapped.Msgs = append([]css.ServerMsg(nil), d.Msgs...)
	swapped.Msgs[0], swapped.Msgs[1] = swapped.Msgs[1], swapped.Msgs[0]
	if err := new(totals).replay(swapped); err == nil {
		t.Error("replay accepted a reordered serialization")
	}
	wrong := d
	wrong.Text = d.Text + "z"
	if err := new(totals).replay(wrong); err == nil {
		t.Error("replay accepted a text the replicas did not converge on")
	}
}
