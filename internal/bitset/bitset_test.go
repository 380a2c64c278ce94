package bitset

import "testing"

func TestSetClearTest(t *testing.T) {
	s := New(200)
	if s.Cap() < 200 {
		t.Fatalf("cap %d < 200", s.Cap())
	}
	set := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range set {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	s.Clear(64)
	if s.Test(64) || !s.Test(63) || !s.Test(65) {
		t.Fatal("Clear failed")
	}
	s.Reset()
	for _, i := range set {
		if s.Test(i) {
			t.Fatalf("bit %d left after Reset", i)
		}
	}
}
