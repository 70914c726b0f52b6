package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/eventlog"
)

// TestFinishFanoutClosesGaps: runs finished out of order hold the
// watermark until the gap below them closes, then it jumps over every
// contiguous run at once.
func TestFinishFanoutClosesGaps(t *testing.T) {
	b := NewBroker()
	steps := []struct {
		first, last, want uint64
	}{
		{3, 3, 0},
		{2, 2, 0},
		{1, 1, 3},
		{7, 9, 3},
		{5, 6, 3},
		{4, 4, 9},
		{10, 10, 10},
	}
	for _, s := range steps {
		b.finishFanout(s.first, s.last)
		if got := b.FannedOut(); got != s.want {
			t.Fatalf("after finishing %d..%d: watermark %d, want %d", s.first, s.last, got, s.want)
		}
	}
	if len(b.fanDone) != 0 {
		t.Fatalf("%d finished runs left pending, want none", len(b.fanDone))
	}
}

// TestFannedOutOrdersConcurrentFanout: concurrent publishers (single and
// batched) offer out of offset order, but a consumer that reads the
// watermark, polls, sorts and releases only offsets up to the watermark
// sees every offset exactly once and in strictly increasing order — on
// an in-memory broker and on a durable one whose log already holds
// history.
func TestFannedOutOrdersConcurrentFanout(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			b := NewBroker()
			var history uint64
			if durable {
				dir := t.TempDir()
				l := openLogT(t, dir)
				for i := 0; i < 10; i++ {
					if _, err := l.Append(eventlog.Record{Topic: "old/x", Time: time.Now(), Payload: []byte("1")}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := b.AttachLog(l); err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				history = 10
			}
			if got := b.FannedOut(); got != history {
				t.Fatalf("watermark before any publish: %d, want %d", got, history)
			}
			sub, err := b.Subscribe("t/#", 1<<16, DropNewest)
			if err != nil {
				t.Fatal(err)
			}

			const pubs, rounds, batch = 4, 200, 5
			var wg sync.WaitGroup
			for p := 0; p < pubs; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					topic := fmt.Sprintf("t/p%d", p)
					for r := 0; r < rounds; r++ {
						if r%2 == 0 {
							if _, err := b.Publish(Message{Topic: topic, Payload: r}); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						msgs := make([]Message, batch)
						for i := range msgs {
							msgs[i] = Message{Topic: topic, Payload: r*batch + i}
						}
						if _, err := b.PublishBatch(msgs); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			var held []Message
			last := history
			released := 0
			release := func() {
				through := b.FannedOut()
				held = append(held, sub.Poll(0)...)
				sort.Slice(held, func(i, j int) bool { return held[i].Offset < held[j].Offset })
				n := 0
				for n < len(held) && held[n].Offset <= through {
					if held[n].Offset != last+1 {
						t.Fatalf("released offset %d after %d", held[n].Offset, last)
					}
					last = held[n].Offset
					n++
				}
				released += n
				held = append(held[:0], held[n:]...)
			}
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				release()
			}
			release()

			want := pubs * (rounds/2 + rounds/2*batch)
			if released != want || len(held) != 0 {
				t.Fatalf("released %d (holding %d), want %d", released, len(held), want)
			}
			if got, next := b.FannedOut(), b.NextOffset(); got != next-1 {
				t.Fatalf("watermark %d after all publishes, want %d", got, next-1)
			}
		})
	}
}
