package predict

import "slices"

// Table is a node's neighbour-report table: the latest Report from each
// sender, kept in ascending ID order. The estimators sum floats over the
// reports, so a fixed operand order is what keeps runs bit-reproducible.
// Rows are one-hop neighbours (a handful per node), so Put scans linearly.
// The zero value is an empty table that allocates on its first Put.
type Table struct {
	rows []Report
}

// Put stores r, replacing the earlier report from the same sender if any.
func (t *Table) Put(r Report) {
	i := 0
	for i < len(t.rows) && t.rows[i].ID < r.ID {
		i++
	}
	if i < len(t.rows) && t.rows[i].ID == r.ID {
		t.rows[i] = r
		return
	}
	if t.rows == nil {
		// Size the first allocation for a typical neighbourhood, so most
		// tables allocate once instead of growing through 1, 2 and 4 rows.
		t.rows = make([]Report, 0, 8)
	}
	t.rows = slices.Insert(t.rows, i, r)
}

// Reports returns the table in ascending ID order. The slice aliases the
// table's storage: callers may only read it, and only until the next Put.
func (t *Table) Reports() []Report { return t.rows }

// Len returns the number of neighbours that have reported.
func (t *Table) Len() int { return len(t.rows) }
