package core

// Level is what the direction rule reads at the end of a level.
type Level struct {
	Dir      Direction // the direction the level ran
	Mu       int64     // m_u before the level: edges not yet examined top-down
	Examined int64     // edges the level examined
	Awake    int64     // vertices of the frontier the level expanded
	Next     int64     // vertices of the frontier it produced, n_f
	Scout    int64     // out-edges of that frontier, m_f
}

// NextDirection is Beamer's α/β direction rule in the GAP formulation
// (arXiv:1705.04590 §4), the one copy the engine, internal/msbfs and
// model.PredictDirections share. It returns the next level's direction and
// m_u after l; vertices is |V|.
//
// After a top-down level m_u shrinks by the edges it examined (bottom-up
// levels leave it alone: the estimate only needs to be conservative) and
// never below m_f, since the new frontier's out-edges are unexamined by
// definition. Without duplicate claims that floor changes nothing; a racing
// cohort expands a doubly-claimed vertex twice, over-counts Examined, and
// m_u would otherwise sink to 0 and flip a late level at any α. The
// traversal switches bottom-up once m_f > m_u/α. It stays bottom-up while
// the frontier keeps growing or holds more than |V|/β vertices.
func NextDirection(l Level, vertices int64, alpha, beta float64) (Direction, int64) {
	if l.Dir == DirBottomUp {
		if l.Next >= l.Awake || float64(l.Next) > float64(vertices)/beta {
			return DirBottomUp, l.Mu
		}
		return DirTopDown, l.Mu
	}
	mu := l.Mu - l.Examined
	if mu < l.Scout {
		mu = l.Scout
	}
	if l.Next > 0 && float64(l.Scout) > float64(mu)/alpha {
		return DirBottomUp, mu
	}
	return DirTopDown, mu
}
