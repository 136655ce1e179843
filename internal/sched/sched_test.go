package sched

import "testing"

func TestWakePark(t *testing.T) {
	s := NewActiveSet(4, false)
	if !s.Empty() || s.Len() != 0 || s.Size() != 4 {
		t.Fatalf("new set: Empty=%v Len=%d Size=%d", s.Empty(), s.Len(), s.Size())
	}
	s.Wake(2)
	s.Wake(2) // idempotent
	if s.Len() != 1 || !s.Active(2) || s.Active(0) {
		t.Fatalf("after Wake(2): Len=%d Active(2)=%v Active(0)=%v", s.Len(), s.Active(2), s.Active(0))
	}
	s.Wake(0)
	if s.Len() != 2 || s.Empty() {
		t.Fatalf("after Wake(0): Len=%d", s.Len())
	}
	s.Park(2)
	s.Park(2) // idempotent
	if s.Len() != 1 || s.Active(2) || !s.Active(0) {
		t.Fatalf("after Park(2): Len=%d Active(2)=%v Active(0)=%v", s.Len(), s.Active(2), s.Active(0))
	}
	s.Park(0)
	if !s.Empty() {
		t.Fatal("set should be empty again")
	}
}

func TestParkNeverWoken(t *testing.T) {
	s := NewActiveSet(2, false)
	s.Park(1) // parking a parked member must not corrupt the count
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	s.Wake(1)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewActiveSet(-1, false) did not panic")
		}
	}()
	NewActiveSet(-1, false)
}

// TestAlwaysAwake pins the exhaustive-tick mode: every member starts active
// and stays active, so an owning tick loop ticks all of them every cycle.
func TestAlwaysAwake(t *testing.T) {
	s := NewActiveSet(3, true)
	if s.Len() != 3 || s.Empty() {
		t.Fatalf("new always-awake set: Len=%d Empty=%v", s.Len(), s.Empty())
	}
	s.Park(1)
	s.Wake(1)
	s.Park(0)
	for i := 0; i < 3; i++ {
		if !s.Active(i) {
			t.Errorf("member %d parked", i)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d after parks, want 3", s.Len())
	}
	if NewActiveSet(0, true).Len() != 0 {
		t.Error("empty always-awake set has members")
	}
}
