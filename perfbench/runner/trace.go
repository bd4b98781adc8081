package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"jupiter/internal/css"
)

// A traced run replays the first documents it converges, up to these
// bounds, so the replay stays a few seconds long.
const (
	maxCaptureDocs = 16
	maxCaptureOps  = 4000
)

// span is one traced interval, with Unix-nanosecond bounds. Spans of one
// op share the op span's id as their parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// span records an interval in traced runs and returns its id (0 untraced).
func (b *bench) span(name string, start, end time.Time, parent int) int {
	if !b.opt.trace {
		return 0
	}
	id := len(b.spans) + 1
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// capturedDoc is one document's serialization as the writers saw it: every
// op's broadcast with its original context and global sequence number.
type capturedDoc struct {
	Doc     string          `json:"doc"`
	Clients []int32         `json:"clients"`
	Text    string          `json:"text"`
	Msgs    []css.ServerMsg `json:"msgs"`
}

// writeJSONLines writes one JSON value per line.
func writeJSONLines[T any](path string, vals []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range vals {
		if err := enc.Encode(vals[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the spans and the captured serializations into dir and
// returns the capture file's path.
func (b *bench) writeTrace(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := writeJSONLines(filepath.Join(dir, "spans.jsonl"), b.spans); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	docs := make([]capturedDoc, 0, len(b.captured))
	for _, d := range b.captured {
		msgs := append([]css.ServerMsg(nil), d.bcasts...)
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
		clients := map[int32]bool{}
		for _, m := range msgs {
			clients[int32(m.Origin)] = true
		}
		cd := capturedDoc{Doc: d.name, Text: d.text, Msgs: msgs}
		for c := range clients {
			cd.Clients = append(cd.Clients, c)
		}
		sort.Slice(cd.Clients, func(i, j int) bool { return cd.Clients[i] < cd.Clients[j] })
		docs = append(docs, cd)
	}
	path := filepath.Join(dir, "capture.jsonl")
	if err := writeJSONLines(path, docs); err != nil {
		return "", fmt.Errorf("write capture: %w", err)
	}
	return path, nil
}

// replayResult is the replay program's output.
type replayResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Errors  []string           `json:"errors"`
}

// runReplay feeds the captured serializations through the replay program.
func runReplay(bin, capture string) (replayResult, error) {
	var res replayResult
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-in", capture)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("replay output: %w", err)
	}
	return res, nil
}
