package gf

import (
	"testing"
	"testing/quick"
)

func TestIsPrime(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 97, 101, 7919}
	composites := []int{-3, 0, 1, 4, 6, 9, 15, 91, 7917}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {7908, 7919},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.in); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestNewRejectsComposite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(6) should panic")
		}
	}()
	New(6)
}

func TestFieldAxiomsQuick(t *testing.T) {
	f := New(101)
	assoc := func(a, b, c int16) bool {
		x, y, z := f.Norm(int(a)), f.Norm(int(b)), f.Norm(int(c))
		return f.Mul(f.Mul(x, y), z) == f.Mul(x, f.Mul(y, z)) &&
			f.Add(f.Add(x, y), z) == f.Add(x, f.Add(y, z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Fatal(err)
	}
	distrib := func(a, b, c int16) bool {
		x, y, z := f.Norm(int(a)), f.Norm(int(b)), f.Norm(int(c))
		return f.Mul(x, f.Add(y, z)) == f.Add(f.Mul(x, y), f.Mul(x, z))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Fatal(err)
	}
	subInverse := func(a, b int16) bool {
		x, y := f.Norm(int(a)), f.Norm(int(b))
		return f.Add(f.Sub(x, y), y) == x
	}
	if err := quick.Check(subInverse, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	for _, q := range []int{2, 3, 5, 7, 11, 13, 101} {
		f := New(q)
		for a := 1; a < q; a++ {
			inv := f.Inv(a)
			if f.Mul(a, inv) != 1 {
				t.Fatalf("GF(%d): %d * %d != 1", q, a, inv)
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) should panic")
		}
	}()
	New(7).Inv(0)
}

func TestPow(t *testing.T) {
	f := New(13)
	if got := f.Pow(2, 0); got != 1 {
		t.Fatalf("2^0 = %d", got)
	}
	if got := f.Pow(2, 10); got != 1024%13 {
		t.Fatalf("2^10 = %d, want %d", got, 1024%13)
	}
	// Fermat's little theorem.
	for a := 1; a < 13; a++ {
		if f.Pow(a, 12) != 1 {
			t.Fatalf("%d^12 != 1 mod 13", a)
		}
	}
}

func TestEvalHorner(t *testing.T) {
	f := New(17)
	// Colour 326 has base-17 digits 3, 2, 1: p(x) = 3 + 2x + x^2, and at
	// x = 5 that is 3 + 10 + 25 = 38 = 4 mod 17.
	if got := f.EvalDigits(326, 3, 5); got != 4 {
		t.Fatalf("EvalDigits = %d, want 4", got)
	}
	// Truncated to two digits: 3 + 2x at x = 5 is 13.
	if got := f.EvalDigits(326, 2, 5); got != 13 {
		t.Fatalf("EvalDigits(t=2) = %d, want 13", got)
	}
	// Padded with a leading zero digit: the same polynomial.
	if got := f.EvalDigits(326, 4, 5); got != 4 {
		t.Fatalf("EvalDigits(t=4) = %d, want 4", got)
	}
	// The empty polynomial is zero.
	if got := f.EvalDigits(326, 0, 9); got != 0 {
		t.Fatalf("EvalDigits(t=0) = %d", got)
	}
}

// TestEvalDigitsMatchesExpansion checks EvalDigits against an explicit
// digit expansion summed term by term.
func TestEvalDigitsMatchesExpansion(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 29, 73, 101}
	check := func(v uint32, tRaw, qRaw, xRaw uint8) bool {
		q := primes[int(qRaw)%len(primes)]
		f := New(q)
		digits := int(tRaw % 12)
		x := int(xRaw) % q
		want, pow, rest := 0, 1, int(v)
		for i := 0; i < digits; i++ {
			want = (want + (rest%q)*pow) % q
			pow = pow * x % q
			rest /= q
		}
		return f.EvalDigits(int(v), digits, x) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctPolynomialsAgreeRarely(t *testing.T) {
	// The property Linial's reduction depends on: two distinct degree-<t
	// polynomials agree on at most t-1 points. Colours 386 and 419 have
	// base-11 digits 1, 2, 3 and 1, 5, 3.
	f := New(11)
	tDeg := 3
	agree := 0
	for x := 0; x < f.Q(); x++ {
		if f.EvalDigits(386, tDeg, x) == f.EvalDigits(419, tDeg, x) {
			agree++
		}
	}
	if agree > tDeg-1 {
		t.Fatalf("distinct polynomials agree on %d points, max %d", agree, tDeg-1)
	}
}

func BenchmarkEvalDigits(b *testing.B) {
	f := New(101)
	for i := 0; i < b.N; i++ {
		_ = f.EvalDigits(521373214, 5, i%101) // digits 3, 1, 4, 1, 5
	}
}
