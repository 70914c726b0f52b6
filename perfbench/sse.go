package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// sseStream reads one SSE subscription. It parses only what the oracle
// and the latency need — the id: offset, the event name and the seq
// header inside the data line — so the reader stays cheap.
type sseStream struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu          sync.Mutex
	recv        map[int]time.Time // seq → first receipt
	dups        int
	regressions int // offsets not above the previous one
	goodbye     bool
	err         error
}

var seqKey = []byte(`"` + seqHeader + `":"`)

// openSSE subscribes to pattern on the server at addr and returns once
// the stream's headers have arrived (the subscription is registered).
func openSSE(addr, pattern string) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/subscribe?pattern="+url.QueryEscape(pattern), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe %s: %s", pattern, resp.Status)
	}
	s := &sseStream{ctx: ctx, cancel: cancel, done: make(chan struct{}), recv: make(map[int]time.Time)}
	go s.read(resp.Body)
	return s, nil
}

func (s *sseStream) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	r := bufio.NewReaderSize(body, 64<<10)
	var last uint64
	event := ""
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			// Ending the stream from this side is not a failure; the
			// server closing it early (EOF) or breaking it is.
			if s.ctx.Err() == nil {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			event = ""
		case bytes.HasPrefix(line, []byte("id: ")):
			off, perr := strconv.ParseUint(string(line[4:]), 10, 64)
			s.mu.Lock()
			if perr == nil {
				if off <= last {
					s.regressions++
				}
				last = off
			}
			s.mu.Unlock()
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[7:])
			if event == "goodbye" {
				s.mu.Lock()
				s.goodbye = true
				s.mu.Unlock()
			}
		case bytes.HasPrefix(line, []byte("data: ")) && event == "message":
			i := bytes.Index(line, seqKey)
			if i < 0 {
				continue // not the generator's event (retained replay)
			}
			rest := line[i+len(seqKey):]
			j := bytes.IndexByte(rest, '"')
			if j < 0 {
				continue
			}
			seq, perr := strconv.Atoi(string(rest[:j]))
			if perr != nil {
				continue
			}
			now := time.Now()
			s.mu.Lock()
			if _, seen := s.recv[seq]; seen {
				s.dups++
			} else {
				s.recv[seq] = now
			}
			s.mu.Unlock()
		}
	}
}

// waitFor blocks until every seq in want has arrived or timeout passes.
func (s *sseStream) waitFor(want []int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		missing := 0
		for _, k := range want {
			if _, ok := s.recv[k]; !ok {
				missing++
				break
			}
		}
		s.mu.Unlock()
		if missing == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close ends the stream and waits for its reader to exit.
func (s *sseStream) close() {
	s.cancel()
	<-s.done
}

// check compares what the stream received with the seqs it should have
// received, and no others, and returns the problems found.
func (s *sseStream) check(want []int) (missing int, problems []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wanted := make(map[int]bool, len(want))
	for _, k := range want {
		wanted[k] = true
		if _, ok := s.recv[k]; !ok {
			missing++
		}
	}
	extra := 0
	for k := range s.recv {
		if !wanted[k] {
			extra++
		}
	}
	if missing > 0 {
		problems = append(problems, fmt.Sprintf("SSE stream missed %d of %d acked matching events", missing, len(want)))
	}
	if extra > 0 {
		problems = append(problems, fmt.Sprintf("SSE stream received %d events that were not acked or do not match", extra))
	}
	if s.dups > 0 {
		problems = append(problems, fmt.Sprintf("SSE stream received %d duplicates", s.dups))
	}
	if s.regressions > 0 {
		problems = append(problems, fmt.Sprintf("SSE offsets went backwards %d times", s.regressions))
	}
	if s.goodbye {
		problems = append(problems, "SSE stream was ended with a goodbye")
	}
	if s.err != nil {
		problems = append(problems, "SSE stream failed: "+s.err.Error())
	}
	return missing, problems
}

// receipt returns when seq arrived.
func (s *sseStream) receipt(seq int) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.recv[seq]
	return t, ok
}
