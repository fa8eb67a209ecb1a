package core

import "testing"

// TestNextDirection pins each guard of the α/β rule with a row at its
// boundary, so flipping a comparison, dropping the m_u floor or the
// empty-frontier guard, or letting a bottom-up level touch m_u fails a row.
// |V| = 1000 and β = 20 put the size bound at 50 vertices.
func TestNextDirection(t *testing.T) {
	const vertices, beta = 1000, 20.0
	td, bu := DirTopDown, DirBottomUp
	for _, tc := range []struct {
		name   string
		l      Level
		alpha  float64
		want   Direction
		wantMu int64
	}{
		// m_u = 1000 − 100 = 900; m_f = 91 > 900/10.
		{"switch down", Level{Dir: td, Mu: 1000, Examined: 100, Next: 10, Scout: 91}, 10, bu, 900},
		{"stay top-down at m_f = m_u/α", Level{Dir: td, Mu: 1000, Examined: 100, Next: 10, Scout: 90}, 10, td, 900},
		// m_u would be 0; the floor holds it at m_f = 40, and 40 > 40/0.5 fails.
		{"m_u floored at m_f", Level{Dir: td, Mu: 100, Examined: 100, Next: 10, Scout: 40}, 0.5, td, 40},
		{"empty frontier stays top-down", Level{Dir: td, Mu: 1000, Examined: 100, Next: 0, Scout: 95}, 10, td, 900},
		{"stay bottom-up while not shrinking", Level{Dir: bu, Mu: 500, Examined: 7, Awake: 40, Next: 40}, 10, bu, 500},
		{"stay bottom-up above |V|/β", Level{Dir: bu, Mu: 500, Examined: 7, Awake: 200, Next: 51}, 10, bu, 500},
		{"return top-down at |V|/β", Level{Dir: bu, Mu: 500, Examined: 7, Awake: 200, Next: 50}, 10, td, 500},
	} {
		dir, mu := NextDirection(tc.l, vertices, tc.alpha, beta)
		if dir != tc.want || mu != tc.wantMu {
			t.Errorf("%s: NextDirection = (%v, m_u %d), want (%v, m_u %d)", tc.name, dir, mu, tc.want, tc.wantMu)
		}
	}
}
