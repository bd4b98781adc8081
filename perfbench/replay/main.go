// Command replay is the per-layer half of the jupiterd benchmark. It reads
// the serializations a traced benchmark run captured (every op's broadcast,
// with its original context and global sequence number), feeds each one
// into a fresh css.Server and an observing css.Client through the
// negotiated wire codec, times each public call, and prints the per-layer
// metrics as one JSON object.
//
// It also checks the replay: the server's serialization must equal the
// captured order, and the server's, the observer's and a late joiner's
// documents must equal the text the live replicas converged on.
//
//	replay -in capture.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/wire"
)

// capturedDoc mirrors the runner's capture format.
type capturedDoc struct {
	Doc     string          `json:"doc"`
	Clients []int32         `json:"clients"`
	Text    string          `json:"text"`
	Msgs    []css.ServerMsg `json:"msgs"`
}

func main() {
	in := flag.String("in", "", "capture file (JSON lines)")
	flag.Parse()
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	docs, err := readCapture(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	var t totals
	var errs []string
	for _, d := range docs {
		if err := t.replay(d); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", d.Doc, err))
		}
	}
	metrics := map[string]float64{}
	if t.docs > 0 {
		metrics = t.metrics()
	} else {
		errs = append(errs, "no document replayed")
	}
	out, err := json.Marshal(map[string]any{"metrics": metrics, "errors": errs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func readCapture(r io.Reader) ([]capturedDoc, error) {
	var docs []capturedDoc
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var d capturedDoc
		if err := dec.Decode(&d); err == io.EOF {
			return docs, nil
		} else if err != nil {
			return nil, fmt.Errorf("read capture: %w", err)
		}
		docs = append(docs, d)
	}
}

// totals accumulates timings over every replayed document.
type totals struct {
	docs, ops             int
	frames                int
	encode, decode        time.Duration
	bytes                 int
	snapBytes             int
	srvRecv, cliRecv      time.Duration
	firstTenth, lastTenth time.Duration
	firstN, lastN         int
	snapshot, join        time.Duration
	srvStates, cliStates  int
}

// replay runs one document's serialization through css and wire.
func (t *totals) replay(d capturedDoc) error {
	codec, ok := wire.Negotiate(wire.PreferredCodecs(""))
	if !ok {
		return fmt.Errorf("no codec negotiated under defaults")
	}
	// As jupiterd hosts a document: compact contexts, clients added as they join.
	srv := css.NewServer(nil, nil, nil)
	srv.UseCompactContexts()
	observer := opid.ClientID(1)
	for _, c := range d.Clients {
		if err := srv.AddClient(opid.ClientID(c)); err != nil {
			return err
		}
		if opid.ClientID(c) >= observer {
			observer = opid.ClientID(c) + 1
		}
	}
	if err := srv.AddClient(observer); err != nil {
		return err
	}
	obs := css.NewClient(observer, nil, nil)
	obs.UseCompactContexts()

	// Wire: the op frame each origin sent and the broadcast frame the
	// others received, through the codec the defaults negotiate.
	frames := make([]*wire.Frame, 0, 2*len(d.Msgs))
	for i, m := range d.Msgs {
		cm := css.ClientMsg{From: m.Origin, Op: m.Op, Ctx: m.Ctx, Compact: m.Compact}
		frames = append(frames,
			&wire.Frame{Type: wire.TOp, Op: &wire.Op{Msg: cm}},
			&wire.Frame{Type: wire.TServer, Server: &wire.Server{Seq: uint64(i + 1), Msg: m}})
	}
	bodies := make([][]byte, len(frames))
	t0 := time.Now()
	for i, f := range frames {
		b, err := wire.EncodeWith(codec, f)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		bodies[i] = b
	}
	t.encode += time.Since(t0)
	t0 = time.Now()
	for _, b := range bodies {
		if _, err := wire.Decode(b); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
	}
	t.decode += time.Since(t0)
	for _, b := range bodies {
		t.bytes += len(b)
	}
	t.frames += len(frames)

	// css: the server serializes the captured order; the observer receives
	// what the server addresses to it.
	tenth := len(d.Msgs) / 10
	for i, m := range d.Msgs {
		cm := css.ClientMsg{From: m.Origin, Op: m.Op, Ctx: m.Ctx, Compact: m.Compact}
		t0 := time.Now()
		outs, err := srv.Receive(cm)
		dt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("server receive seq %d: %w", m.Seq, err)
		}
		t.srvRecv += dt
		if i < tenth {
			t.firstTenth += dt
			t.firstN++
		}
		if i >= len(d.Msgs)-tenth {
			t.lastTenth += dt
			t.lastN++
		}
		for _, out := range outs {
			if out.To != observer {
				continue
			}
			t0 := time.Now()
			err := obs.Receive(out.Msg)
			t.cliRecv += time.Since(t0)
			if err != nil {
				return fmt.Errorf("observer receive seq %d: %w", m.Seq, err)
			}
		}
	}
	if err := checkOrder(srv.Serialized(), d.Msgs); err != nil {
		return err
	}
	if got := list.Render(srv.Document()); got != d.Text {
		return fmt.Errorf("replayed server text differs from the live replicas (%d vs %d chars)", len(got), len(d.Text))
	}
	if got := list.Render(obs.Document()); got != d.Text {
		return fmt.Errorf("replayed observer text differs from the live replicas (%d vs %d chars)", len(got), len(d.Text))
	}

	// Join at the final history: snapshot, its welcome frame, and rooting a
	// fresh replica from it.
	t0 = time.Now()
	snap := srv.Snapshot()
	t.snapshot += time.Since(t0)
	welcome, err := wire.EncodeWith(codec, &wire.Frame{Type: wire.TWelcome,
		Welcome: &wire.Welcome{ClientID: int32(observer + 1), Snapshot: snap, Codec: codec.Name()}})
	if err != nil {
		return fmt.Errorf("encode welcome: %w", err)
	}
	t.snapBytes += len(welcome)
	t0 = time.Now()
	joined, err := css.NewClientFromSnapshot(observer+1, snap, nil)
	t.join += time.Since(t0)
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if got := list.Render(joined.Document()); got != d.Text {
		return fmt.Errorf("joined replica text differs from the live replicas")
	}
	t.srvStates += len(srv.Space().States())
	t.cliStates += len(obs.Space().States())
	t.docs++
	t.ops += len(d.Msgs)
	return nil
}

// checkOrder compares the replayed serialization with the captured one.
func checkOrder(got []opid.OpID, msgs []css.ServerMsg) error {
	if len(got) != len(msgs) {
		return fmt.Errorf("replay serialized %d ops, captured %d", len(got), len(msgs))
	}
	for i, m := range msgs {
		if m.Seq != uint64(i+1) || got[i] != m.Op.ID {
			return fmt.Errorf("replayed op %d is %v, captured %v at seq %d", i+1, got[i], m.Op.ID, m.Seq)
		}
	}
	return nil
}

// metrics reports per-op and per-doc means over the replayed documents.
func (t *totals) metrics() map[string]float64 {
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	docs := float64(t.docs)
	return map[string]float64{
		"ops":                       float64(t.ops),
		"wire.encode_ns_per_frame":  float64(t.encode) / float64(t.frames),
		"wire.decode_ns_per_frame":  float64(t.decode) / float64(t.frames),
		"wire.bytes_per_op":         float64(t.bytes) / float64(t.ops),
		"wire.snapshot_bytes":       float64(t.snapBytes) / docs,
		"css.server_receive_us":     us(t.srvRecv, t.ops),
		"css.client_receive_us":     us(t.cliRecv, t.ops),
		"css.server_receive_growth": us(t.lastTenth, t.lastN) / us(t.firstTenth, t.firstN),
		"css.snapshot_us":           us(t.snapshot, t.docs),
		"css.join_ms":               us(t.join, t.docs) / 1000,
		"statespace.server_states":  float64(t.srvStates) / docs,
		"statespace.client_states":  float64(t.cliStates) / docs,
	}
}
