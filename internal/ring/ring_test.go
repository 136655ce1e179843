package ring

import (
	"math/rand"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 100; i++ {
		b.Push(i)
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	for i := 0; i < 100; i++ {
		if got := *b.Front(); got != i {
			t.Fatalf("Front = %d, want %d", got, i)
		}
		if got := b.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", b.Len())
	}
}

func TestWrapAround(t *testing.T) {
	var b Buffer[int]
	next, expect := 0, 0
	// Interleave pushes and pops so head walks around the array many times.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			b.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := b.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for b.Len() > 0 {
		if got := b.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, pushed %d", expect, next)
	}
}

func TestAt(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 5; i++ {
		b.Push(10 + i)
	}
	b.Pop()
	b.Push(15)
	for i := 0; i < b.Len(); i++ {
		if got := *b.At(i); got != 11+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 11+i)
		}
	}
	*b.At(2) = 99
	if got := *b.At(2); got != 99 {
		t.Fatalf("At(2) after write = %d, want 99", got)
	}
}

// TestRemoveAtMatchesSlice drives the ring and a reference slice with the
// same random operation sequence and requires identical contents throughout
// — RemoveAt (both shift directions), Push, and Pop must preserve order
// exactly like append/copy on a plain slice.
func TestRemoveAtMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Buffer[int]
	var ref []int
	next := 0
	for op := 0; op < 5000; op++ {
		switch {
		case len(ref) == 0 || rng.Intn(3) == 0:
			b.Push(next)
			ref = append(ref, next)
			next++
		case rng.Intn(2) == 0:
			got, want := b.Pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, want)
			}
		default:
			i := rng.Intn(len(ref))
			got, want := b.RemoveAt(i), ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got != want {
				t.Fatalf("op %d: RemoveAt(%d) = %d, want %d", op, i, got, want)
			}
		}
		if b.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, b.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *b.At(i); got != want {
				t.Fatalf("op %d: At(%d) = %d, want %d", op, i, got, want)
			}
		}
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var b Buffer[*int]
	v := new(int)
	b.Push(v)
	b.Pop()
	// The backing array must not pin the popped pointer.
	if b.buf[0] != nil {
		t.Fatal("Pop left the popped pointer in the backing array")
	}
	b.Push(v)
	b.Push(v)
	b.RemoveAt(1)
	for i := range b.buf {
		if i != b.head && b.buf[i] != nil {
			t.Fatalf("RemoveAt left a stale pointer at slot %d", i)
		}
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 16; i++ {
		b.Push(i)
	}
	for b.Len() > 0 {
		b.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			b.Push(i)
		}
		for b.Len() > 0 {
			b.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocated %.1f times per run, want 0", allocs)
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on empty buffer did not panic", name)
			}
		}()
		f()
	}
	var b Buffer[int]
	expectPanic("Pop", func() { b.Pop() })
	expectPanic("Front", func() { b.Front() })
	expectPanic("At", func() { b.At(0) })
	expectPanic("RemoveAt", func() { b.RemoveAt(0) })
}

// FuzzRingBuffer drives a Buffer and a plain-slice model with the same
// Push/Pop/Front/At/RemoveAt stream, two bytes per op (op, argument). After
// every op the contents must match the model, and every backing slot outside
// the live window must hold the zero value, so vacated slots pin nothing.
// Out-of-range indices and ops on an empty buffer must panic. Pushed values
// are nonzero, which makes a stale slot visible.
func FuzzRingBuffer(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 4, 0})
	// Wrap the head around a full 8-slot array, then remove from both
	// halves and grow while wrapped.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0,
		0, 0, 0, 0, 0, 0, 4, 2, 4, 5, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 4, 8})
	// Every op on an empty buffer, and indices past either end.
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 0, 0, 3, 2, 4, 3, 3, 0})

	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Buffer[int]
		var model []int
		next := 1
		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k]%5, int(data[k+1])
			// Indices run from -1 to Len, one past either end.
			i := arg%(len(model)+2) - 1
			inRange := i >= 0 && i < len(model)
			switch op {
			case 0:
				b.Push(next)
				model = append(model, next)
				next++
			case 1:
				if len(model) == 0 {
					if !panics(func() { b.Pop() }) {
						t.Fatalf("op %d: Pop on empty buffer did not panic", k/2)
					}
					break
				}
				if got := b.Pop(); got != model[0] {
					t.Fatalf("op %d: Pop = %d, want %d", k/2, got, model[0])
				}
				model = model[1:]
			case 2:
				if len(model) == 0 {
					if !panics(func() { b.Front() }) {
						t.Fatalf("op %d: Front on empty buffer did not panic", k/2)
					}
					break
				}
				if got := *b.Front(); got != model[0] {
					t.Fatalf("op %d: Front = %d, want %d", k/2, got, model[0])
				}
			case 3:
				if !inRange {
					if !panics(func() { b.At(i) }) {
						t.Fatalf("op %d: At(%d) on length %d did not panic", k/2, i, len(model))
					}
					break
				}
				p := b.At(i)
				if *p != model[i] {
					t.Fatalf("op %d: At(%d) = %d, want %d", k/2, i, *p, model[i])
				}
				// Writes through the pointer land in place.
				*p, model[i] = next, next
				next++
			case 4:
				if !inRange {
					if !panics(func() { b.RemoveAt(i) }) {
						t.Fatalf("op %d: RemoveAt(%d) on length %d did not panic", k/2, i, len(model))
					}
					break
				}
				if got := b.RemoveAt(i); got != model[i] {
					t.Fatalf("op %d: RemoveAt(%d) = %d, want %d", k/2, i, got, model[i])
				}
				model = append(model[:i:i], model[i+1:]...)
			}

			if b.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", k/2, b.Len(), len(model))
			}
			live := make([]bool, len(b.buf))
			for j, want := range model {
				live[(b.head+j)%len(b.buf)] = true
				if got := *b.At(j); got != want {
					t.Fatalf("op %d: At(%d) = %d, want %d", k/2, j, got, want)
				}
			}
			for j, v := range b.buf {
				if !live[j] && v != 0 {
					t.Fatalf("op %d: vacated slot %d still holds %d", k/2, j, v)
				}
			}
		}
	})
}
