package netem

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestLinkValidate(t *testing.T) {
	if err := (Link{BandwidthBps: 1e6, Latency: time.Millisecond}).Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	bad := []Link{
		{BandwidthBps: -1},
		{Latency: -time.Second},
		{Jitter: -time.Second},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSerializationDelay(t *testing.T) {
	l := Link{BandwidthBps: 8e6} // 1 MB/s
	if got, want := l.serializationDelay(1_000_000), time.Second; got != want {
		t.Errorf("serializationDelay = %v, want %v", got, want)
	}
	if got := (Link{}).serializationDelay(1000); got != 0 {
		t.Errorf("unshaped link delay = %v, want 0", got)
	}
	if got := l.serializationDelay(0); got != 0 {
		t.Errorf("zero bytes delay = %v, want 0", got)
	}
}

func TestTransferDelayIncludesLatency(t *testing.T) {
	l := Link{BandwidthBps: 8e6, Latency: 50 * time.Millisecond}
	want := 100*time.Millisecond + 50*time.Millisecond
	if got := l.TransferDelay(100_000); got != want {
		t.Errorf("TransferDelay = %v, want %v", got, want)
	}
}

func TestShaperPacesThroughput(t *testing.T) {
	s, err := NewShaper(Link{BandwidthBps: 8e6}, 1) // 1 MB/s
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	start := time.Now()
	const msgs, size = 10, 20_000 // 200 KB total => ~200 ms
	for i := 0; i < msgs; i++ {
		s.Acquire(size)
	}
	elapsed := time.Since(start)
	want := 200 * time.Millisecond
	if elapsed < want*8/10 {
		t.Errorf("shaper too fast: %v for %v of traffic", elapsed, want)
	}
	if elapsed > want*3 {
		t.Errorf("shaper too slow: %v for %v of traffic", elapsed, want)
	}
}

func TestShaperAddsLatency(t *testing.T) {
	s, err := NewShaper(Link{Latency: 30 * time.Millisecond}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	start := time.Now()
	s.Acquire(10)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestShaperConcurrentSendersShareBandwidth(t *testing.T) {
	s, err := NewShaper(Link{BandwidthBps: 8e6}, 1) // 1 MB/s
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s.Acquire(10_000) // 4*5*10 KB = 200 KB total
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 160*time.Millisecond {
		t.Errorf("concurrent senders exceeded link capacity: 200KB in %v", elapsed)
	}
}

func TestShapedConnWrites(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	s, err := NewShaper(Link{Latency: 20 * time.Millisecond}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	shaped := s.Conn(a)

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	start := time.Now()
	if _, err := shaped.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("shaped write returned too fast: %v", elapsed)
	}
	if string(<-got) != "hello" {
		t.Error("payload corrupted by shaping")
	}
}

func TestNewShaperRejectsBadLink(t *testing.T) {
	if _, err := NewShaper(Link{BandwidthBps: -5}, 1); err == nil {
		t.Error("invalid link accepted")
	}
}

func TestFaultValidate(t *testing.T) {
	if err := (Fault{}).validate(); err != nil {
		t.Errorf("zero fault rejected: %v", err)
	}
	if err := (Fault{LossProb: 1.5}).validate(); err == nil {
		t.Error("loss probability above 1 accepted")
	}
	if err := (Fault{LossProb: -0.1}).validate(); err == nil {
		t.Error("negative loss probability accepted")
	}
	if err := (Fault{SpikeLatency: -time.Second}).validate(); err == nil {
		t.Error("negative spike latency accepted")
	}
}

func TestBlackoutResetsConnection(t *testing.T) {
	s, err := NewShaper(Link{}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	a, b := net.Pipe()
	defer b.Close()
	shaped := s.Conn(a)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := shaped.Write([]byte("ok")); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	if err := s.SetFault(Fault{Blackout: true}); err != nil {
		t.Fatalf("SetFault: %v", err)
	}
	if _, err := shaped.Write([]byte("lost")); !errors.Is(err, ErrInjected) {
		t.Fatalf("blackout write = %v, want ErrInjected", err)
	}
	// The reset kills the underlying connection in both directions.
	if _, err := a.Write([]byte("dead")); err == nil {
		t.Error("underlying connection survived the blackout reset")
	}
	// Clearing the fault restores future flows (on new connections).
	if err := s.SetFault(Fault{}); err != nil {
		t.Fatalf("clear fault: %v", err)
	}
	s.mu.Lock()
	cleared := s.fault
	s.mu.Unlock()
	if cleared != (Fault{}) {
		t.Errorf("fault = %+v after clear", cleared)
	}
}

func TestLossProbabilityResetsEventually(t *testing.T) {
	s, err := NewShaper(Link{}, 7)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	if err := s.SetFault(Fault{LossProb: 0.5}); err != nil {
		t.Fatalf("SetFault: %v", err)
	}
	// With p=0.5 the chance of 64 straight deliveries is ~5e-20.
	sawLoss := false
	for i := 0; i < 64 && !sawLoss; i++ {
		a, b := net.Pipe()
		go func() {
			buf := make([]byte, 16)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		shaped := s.Conn(a)
		if _, err := shaped.Write([]byte("x")); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("loss produced %v, want ErrInjected", err)
			}
			sawLoss = true
		}
		a.Close()
		b.Close()
	}
	if !sawLoss {
		t.Error("no loss observed in 64 sends at p=0.5")
	}
}

func TestSpikeLatencyDelaysDelivery(t *testing.T) {
	s, err := NewShaper(Link{}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	base := s.Acquire(10)
	if err := s.SetFault(Fault{SpikeLatency: 50 * time.Millisecond}); err != nil {
		t.Fatalf("SetFault: %v", err)
	}
	spiked := s.Acquire(10)
	if spiked-base < 40*time.Millisecond {
		t.Errorf("spike not applied: base %v, spiked %v", base, spiked)
	}
	if err := s.SetFault(Fault{}); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if again := s.Acquire(10); again > 20*time.Millisecond {
		t.Errorf("spike persisted after clear: %v", again)
	}
}

func TestSetFaultRejectsInvalid(t *testing.T) {
	s, err := NewShaper(Link{}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	if err := s.SetFault(Fault{LossProb: 2}); err == nil {
		t.Error("invalid fault accepted")
	}
}
