package main

import (
	"fmt"
	"sort"

	"mqpi/internal/engine"
	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
	"mqpi/internal/workload"
)

// liveRows calls f on every live row of a table, in heap order, reading the
// relation's pages directly rather than through the executor.
func liveRows(db *engine.DB, table string, f func(types.Row)) error {
	t, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	for p := 0; p < t.Rel.NumPages(); p++ {
		for s, row := range t.Rel.Page(p) {
			if t.Rel.Live(storage.RowID{Page: p, Slot: s}) {
				f(row)
			}
		}
	}
	return nil
}

// lineAgg is the per-partkey aggregate every template's sub-query needs.
type lineAgg struct {
	sumPrice float64
	sumQty   int64
	maxPrice float64
	count    int64
}

// expectedAnswer computes a template's answer over part_i with a hash join
// plus aggregate in plain Go: the rows the query returns (partkey and
// retailprice, sorted by partkey) or, for the counting template, the count.
func expectedAnswer(db *engine.DB, q query) ([][2]float64, int64, error) {
	aggs := make(map[int64]*lineAgg)
	err := liveRows(db, "lineitem", func(row types.Row) {
		k := row[0].Int()
		a := aggs[k]
		if a == nil {
			a = &lineAgg{maxPrice: row[2].Float()}
			aggs[k] = a
		}
		a.sumPrice += row[2].Float()
		a.sumQty += row[1].Int()
		if p := row[2].Float(); p > a.maxPrice {
			a.maxPrice = p
		}
		a.count++
	})
	if err != nil {
		return nil, 0, err
	}
	var rows [][2]float64
	var count int64
	err = liveRows(db, workload.PartTableName(q.Table), func(row types.Row) {
		key, retail := row[0].Int(), row[1].Float()
		a := aggs[key] // nil: the sub-query's aggregate is NULL and the predicate fails
		switch q.Template {
		case workload.TemplateRetail:
			if a != nil && retail*0.75 > a.sumPrice/float64(a.sumQty) {
				rows = append(rows, [2]float64{float64(key), retail})
			}
		case workload.TemplateMaxPrice:
			if a != nil && retail > a.maxPrice/30 {
				rows = append(rows, [2]float64{float64(key), retail})
			}
		case workload.TemplateGroupCount:
			if a != nil && a.count >= 25 {
				count++
			}
		}
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	return rows, count, err
}

// engineAnswer runs the query through DB.Query and returns the same shape
// as expectedAnswer, plus the work the query was charged.
func engineAnswer(db *engine.DB, q query) ([][2]float64, int64, float64, error) {
	out, _, work, err := db.Query(q.SQL())
	if err != nil {
		return nil, 0, 0, err
	}
	if q.Template == workload.TemplateGroupCount {
		if len(out) != 1 || len(out[0]) != 1 {
			return nil, 0, 0, fmt.Errorf("count query returned %d rows", len(out))
		}
		return nil, out[0][0].Int(), work, nil
	}
	rows := make([][2]float64, len(out))
	for i, r := range out {
		if len(r) != 2 {
			return nil, 0, 0, fmt.Errorf("row %d has %d columns", i, len(r))
		}
		rows[i] = [2]float64{float64(r[0].Int()), r[1].Float()}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	return rows, 0, work, nil
}

// runOracle runs every (table, template) pair through DB.Query on a replica
// and compares each answer with the plain-Go computation. It returns the
// charged U of each solo run, by SQL: what a finished query must report as
// done_u.
func runOracle(db *engine.DB, pairs []query) (map[string]float64, error) {
	solo := make(map[string]float64)
	for _, q := range pairs {
		got, gotN, work, err := engineAnswer(db, q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q.SQL(), err)
		}
		want, wantN, err := expectedAnswer(db, q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		if gotN != wantN || len(got) != len(want) {
			return nil, fmt.Errorf("oracle: %s over part_%d: engine gave %d rows/count %d, expected %d rows/count %d",
				q.Template, q.Table, len(got), gotN, len(want), wantN)
		}
		for i := range got {
			if got[i] != want[i] {
				return nil, fmt.Errorf("oracle: %s over part_%d: row %d is %v, expected %v", q.Template, q.Table, i, got[i], want[i])
			}
		}
		solo[q.SQL()] = work
	}
	return solo, nil
}
