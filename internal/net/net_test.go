package net

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// --- frame codec ---

func TestFrameRoundTrip(t *testing.T) {
	// One scratch buffer and one header serve every frame, as they do
	// on a connection: reuse must not leak bytes between frames.
	var buf bytes.Buffer
	var scratch []byte
	var head [headerLen]byte
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096), []byte("yz")}
	for i, p := range payloads {
		if err := writeFrame(&buf, &scratch, FrameApp+uint8(i), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := readFrame(&buf, &head)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != FrameApp+uint8(i) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, FrameApp+uint8(i))
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %q, want %q", i, got, p)
		}
	}
}

func TestFrameCloseMarker(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, new([]byte), frameClose, nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := readFrame(&buf, new([headerLen]byte))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("close marker read: %v, want ErrPeerClosed", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, new([]byte), FrameApp, []byte("important bytes")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every proper prefix must surface as ErrTruncated, never as a
	// parse of partial data and never as a clean close.
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := readFrame(bytes.NewReader(whole[:cut]), new([headerLen]byte))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d/%d: %v, want ErrTruncated", cut, len(whole), err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	pristine := func() []byte {
		var buf bytes.Buffer
		writeFrame(&buf, new([]byte), FrameApp, []byte("checksummed"))
		return buf.Bytes()
	}
	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"magic", func(b []byte) { b[0] ^= 0xFF }},
		{"version", func(b []byte) { b[4] = 99 }},
		{"payload", func(b []byte) { b[headerLen] ^= 0x01 }},
		{"type", func(b []byte) { b[8] ^= 0x01 }}, // CRC covers the header too
		{"crc", func(b []byte) { b[len(b)-1] ^= 0x01 }},
	}
	for _, tc := range cases {
		b := pristine()
		tc.mut(b)
		_, _, err := readFrame(bytes.NewReader(b), new([headerLen]byte))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s flip: %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// --- transports ---

// transportsUnderTest yields each scheme with a fresh listen address.
func transportsUnderTest(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	return map[string]string{
		"tcp":  "127.0.0.1:0",
		"unix": filepath.Join(dir, "t.sock"),
		"chan": fmt.Sprintf("test-%s", t.Name()),
	}
}

func TestTransportRoundTrip(t *testing.T) {
	for scheme, addr := range transportsUnderTest(t) {
		t.Run(scheme, func(t *testing.T) {
			tr, err := New(scheme)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan error, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				for {
					m, err := c.Recv(2 * time.Second)
					if err != nil {
						done <- err
						return
					}
					m.Type++ // echo with a visible transform
					if err := c.Send(m); err != nil {
						done <- err
						return
					}
				}
			}()
			c, err := tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				want := []byte(fmt.Sprintf("msg-%d", i))
				if err := c.Send(Msg{Type: FrameApp, Payload: want}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				m, err := c.Recv(2 * time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if m.Type != FrameApp+1 || !bytes.Equal(m.Payload, want) {
					t.Fatalf("echo %d: type %d payload %q", i, m.Type, m.Payload)
				}
			}
			c.Close()
			if err := <-done; !errors.Is(err, ErrPeerClosed) {
				t.Fatalf("server saw %v after client close, want ErrPeerClosed", err)
			}
		})
	}
}

// TestSockConnFrameAllocs pins the per-frame allocation budget of the
// socket transport: Send reuses the connection's frame buffer, and
// Recv allocates only the payload it hands to the caller.
func TestSockConnFrameAllocs(t *testing.T) {
	tr, _ := New("unix")
	ln, err := tr.Listen(filepath.Join(t.TempDir(), "a.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	a, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer b.Close()

	// AllocsPerRun counts every goroutine's allocations, so Send and
	// Recv run in the same function, one frame at a time: the frame
	// fits the socket buffer and nothing else is running.
	m := Msg{Type: FrameApp, Payload: bytes.Repeat([]byte{7}, 3072)}
	var failed error
	roundTrip := func() {
		if err := a.Send(m); err != nil {
			failed = err
			return
		}
		got, err := b.Recv(0)
		if err != nil || len(got.Payload) != len(m.Payload) {
			failed = fmt.Errorf("recv: %v (%d bytes)", err, len(got.Payload))
		}
	}
	roundTrip() // grow the write buffer once
	allocs := testing.AllocsPerRun(200, roundTrip)
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs > 1 {
		t.Fatalf("Send+Recv allocate %.1f times per frame, want at most 1 (the received payload)", allocs)
	}
}

func TestTransportRecvTimeout(t *testing.T) {
	for scheme, addr := range transportsUnderTest(t) {
		t.Run(scheme, func(t *testing.T) {
			tr, _ := New(scheme)
			ln, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go ln.Accept()
			c, err := tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := time.Now()
			_, err = c.Recv(50 * time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Recv: %v, want ErrTimeout", err)
			}
			if time.Since(start) > 2*time.Second {
				t.Fatalf("timeout took %v", time.Since(start))
			}
			// The connection survives a timeout.
			if err := c.Send(Msg{Type: FrameApp}); err != nil {
				t.Fatalf("send after timeout: %v", err)
			}
		})
	}
}

func TestChanCloseDeliversBuffered(t *testing.T) {
	tr, _ := New("chan")
	ln, err := tr.Listen("buffered-close")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	// Queue a message, then close: the reader must still get the
	// message before seeing ErrPeerClosed — mirroring a socket that
	// delivers bytes queued ahead of the close marker.
	if err := c.Send(Msg{Type: FrameApp, Payload: []byte("last words")}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	m, err := srv.Recv(time.Second)
	if err != nil || string(m.Payload) != "last words" {
		t.Fatalf("buffered recv: %q, %v", m.Payload, err)
	}
	if _, err := srv.Recv(time.Second); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("post-close recv: %v, want ErrPeerClosed", err)
	}
}

// --- backoff ---

func TestBackoffDeterministicAndCapped(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 5 * time.Second, Seed: 7}
	for attempt := 1; attempt <= 12; attempt++ {
		d1 := b.Delay("dial:3", attempt)
		d2 := b.Delay("dial:3", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		envelope := 50 * time.Millisecond << min(attempt-1, 30)
		if envelope > b.Max {
			envelope = b.Max
		}
		if d1 < envelope/2 || d1 >= envelope {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, envelope/2, envelope)
		}
	}
	if d := b.Delay("dial:3", 40); d >= b.Max {
		t.Fatalf("capped delay %v not under max %v", d, b.Max)
	}
}

func TestBackoffJitterSpreadsPeers(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Minute}
	seen := map[time.Duration]bool{}
	for rank := 0; rank < 16; rank++ {
		seen[b.Delay(fmt.Sprintf("dial:%d", rank), 3)] = true
	}
	if len(seen) < 12 {
		t.Fatalf("16 peers share %d distinct delays; jitter is not spreading", len(seen))
	}
}

func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	if d := b.Delay("x", 1); d < 25*time.Millisecond || d >= 50*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside [25ms, 50ms)", d)
	}
}

// --- fleet: coordinator + worker over the chan transport ---

// echoWorker runs a RunWorker that answers every app frame by echoing
// the payload at type+1, stopping on FrameApp+7.
func echoWorker(ctx context.Context, tr Transport, addr string, rank int) error {
	return RunWorker(ctx, WorkerConfig{
		Transport: tr, Join: addr, Rank: rank, Proto: "test/1",
		Backoff: Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}, func(m Msg, send func(Msg) error) error {
		if m.Type == FrameApp+7 {
			return ErrWorkerDone
		}
		return send(Msg{Type: m.Type + 1, Payload: m.Payload})
	})
}

func TestFleetRegisterAndEcho(t *testing.T) {
	tr, _ := New("chan")
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-echo", Workers: 2, Proto: "test/1",
		Lease: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for r := 0; r < 2; r++ {
		go echoWorker(ctx, tr, co.Addr(), r)
	}
	joined := 0
	for joined < 2 {
		ev := waitEvent(t, co)
		if ev.Kind != PeerJoined {
			t.Fatalf("unexpected event before joins: %+v", ev)
		}
		if ev.Rejoin {
			t.Fatalf("first join of rank %d flagged as rejoin", ev.Rank)
		}
		joined++
	}
	for r := 0; r < 2; r++ {
		if err := co.Send(r, Msg{Type: FrameApp, Payload: []byte("ping")}); err != nil {
			t.Fatalf("send to %d: %v", r, err)
		}
	}
	got := 0
	for got < 2 {
		ev := waitEvent(t, co)
		if ev.Kind != PeerMsg {
			continue
		}
		if ev.Msg.Type != FrameApp+1 || string(ev.Msg.Payload) != "ping" {
			t.Fatalf("echo from %d: type %d payload %q", ev.Rank, ev.Msg.Type, ev.Msg.Payload)
		}
		got++
	}
	st := co.Stats()
	if st.Sent != 2 || st.Received != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFleetLeaseExpiryAndRejoin(t *testing.T) {
	tr, _ := New("chan")
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-lease", Workers: 1, Proto: "test/1",
		Lease: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// A raw client that registers but never heartbeats: the lease must
	// expire it.
	conn, err := tr.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(Msg{Type: frameHello, Payload: helloPayload("test/1", 0)}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, co); ev.Kind != PeerJoined || ev.Incarnation != 1 {
		t.Fatalf("want join of incarnation 1, got %+v", ev)
	}
	if ev := waitEvent(t, co); ev.Kind != PeerDead || ev.Incarnation != 1 {
		t.Fatalf("want lease death of incarnation 1, got %+v", ev)
	}
	if st := co.Stats(); st.LeaseExpired == 0 {
		t.Fatalf("lease expiry not counted: %+v", st)
	}
	conn.Close()

	// A real worker now rejoins the same rank; the join must carry the
	// rejoin flag.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go echoWorker(ctx, tr, co.Addr(), 0)
	ev := waitEvent(t, co)
	if ev.Kind != PeerJoined || !ev.Rejoin || ev.Incarnation != 2 {
		t.Fatalf("want rejoin of incarnation 2, got %+v", ev)
	}
	// Frames addressed to the dead incarnation never reach its successor.
	if err := co.SendTo(0, 1, Msg{Type: FrameApp, Payload: []byte("stale")}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("SendTo a superseded incarnation: %v, want ErrNotConnected", err)
	}
	if err := co.SendTo(0, 2, Msg{Type: FrameApp, Payload: []byte("alive?")}); err != nil {
		t.Fatal(err)
	}
	for {
		ev := waitEvent(t, co)
		if ev.Kind == PeerMsg {
			if string(ev.Msg.Payload) != "alive?" || ev.Incarnation != 2 {
				t.Fatalf("echo payload %q from incarnation %d", ev.Msg.Payload, ev.Incarnation)
			}
			break
		}
	}
}

func TestFleetSupervisorRespawnsAndGivesUp(t *testing.T) {
	tr, _ := New("chan")
	var launches atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Rank 0's spawn starts a real worker; rank 1's spawn is a no-op,
	// so after MaxRespawns join timeouts the rank must be declared lost.
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-spawn", Workers: 2, Proto: "test/1",
		Lease: 150 * time.Millisecond, JoinTimeout: 100 * time.Millisecond,
		MaxRespawns: 3,
		Backoff:     Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			launches.Add(1)
			if rank == 0 {
				go echoWorker(ctx, tr, addr, 0)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	sawJoin, sawLost := false, false
	deadline := time.After(10 * time.Second)
	for !(sawJoin && sawLost) {
		select {
		case ev := <-co.Events():
			switch {
			case ev.Kind == PeerJoined && ev.Rank == 0:
				sawJoin = true
			case ev.Kind == PeerLost && ev.Rank == 1:
				sawLost = true
			case ev.Kind == PeerLost && ev.Rank == 0:
				t.Fatal("healthy rank 0 declared lost")
			}
		case <-deadline:
			t.Fatalf("timeout; join=%v lost=%v after %d launches", sawJoin, sawLost, launches.Load())
		}
	}
	if st := co.Stats(); st.Lost != 1 {
		t.Fatalf("stats lost=%d, want 1", st.Lost)
	}
	// Late hellos from a lost rank are rejected: lost is sticky.
	conn, err := tr.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(Msg{Type: frameHello, Payload: helloPayload("test/1", 1)})
	if _, err := conn.Recv(300 * time.Millisecond); err == nil {
		t.Fatal("lost rank received a welcome")
	}
	conn.Close()
}

func TestFleetWorkerSurvivesCoordinatorRestart(t *testing.T) {
	tr, _ := New("chan")
	mk := func() *Coordinator {
		co, err := NewCoordinator(FleetConfig{
			Transport: tr, Listen: "fleet-restart", Workers: 1, Proto: "test/1",
			Lease: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	co := mk()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	go func() { workerErr <- echoWorker(ctx, tr, co.Addr(), 0) }()
	if ev := waitEvent(t, co); ev.Kind != PeerJoined {
		t.Fatalf("want join, got %+v", ev)
	}
	co.Close() // coordinator dies; worker must redial with backoff
	co = mk()
	defer co.Close()
	if ev := waitEvent(t, co); ev.Kind != PeerJoined {
		t.Fatalf("want join on the new coordinator, got %+v", ev)
	}
	// The worker is functional on the new incarnation; then stop it.
	if err := co.Send(0, Msg{Type: FrameApp + 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop")
	}
}

func TestWorkerGivesUpWithoutCoordinator(t *testing.T) {
	tr, _ := New("chan")
	err := RunWorker(context.Background(), WorkerConfig{
		Transport: tr, Join: "nobody-home", Rank: 0, Proto: "test/1",
		Backoff:         Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxDialAttempts: 3,
	}, func(m Msg, send func(Msg) error) error { return nil })
	if err == nil {
		t.Fatal("worker returned nil with no coordinator")
	}
}

func TestHelloRejectsWrongProto(t *testing.T) {
	tr, _ := New("chan")
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-proto", Workers: 1, Proto: "test/1",
		Lease: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn, err := tr.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e ckpt.Enc
	e.Str("other/9")
	e.I64(0)
	e.I64(1234)
	conn.Send(Msg{Type: frameHello, Payload: e.Bytes()})
	if _, err := conn.Recv(300 * time.Millisecond); err == nil {
		t.Fatal("wrong-proto hello received a welcome")
	}
}

func waitEvent(t *testing.T, co *Coordinator) Event {
	t.Helper()
	select {
	case ev := <-co.Events():
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no fleet event within 10s")
		return Event{}
	}
}
