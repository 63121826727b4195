// Fixture for the maporder rule. Loaded under the claimed import path
// iobehind/internal/cluster (a simulation package) and again under the
// exempt iobehind/internal/runner path, where nothing may be reported.
package fixture

import "fmt"

type queue struct{ items []int }

func (q *queue) Schedule(v int) { q.items = append(q.items, v) }

// collect is the PR-5 bug shape: the result slice is built in map order.
func collect(m map[int]int) []int {
	var out []int
	for k, v := range m { // want "appends to a slice"
		out = append(out, k+v)
	}
	return out
}

func enqueue(q *queue, m map[int]int) {
	for k := range m { // want "schedules events"
		q.Schedule(k)
	}
}

type future struct{ waiters []func() }

func (f *future) Then(fn func()) { f.waiters = append(f.waiters, fn) }

func chain(f *future, m map[int]func()) {
	for _, fn := range m { // want "schedules events"
		f.Then(fn)
	}
}

func show(m map[string]float64) {
	for k, v := range m { // want "writes output"
		fmt.Println(k, v)
	}
}

func total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "accumulates floats"
		sum += v
	}
	return sum
}

// Order-independent bodies stay allowed: counting, per-key writes, and
// integer accumulation do not depend on iteration order.
func count(m map[string]int) int {
	n := 0
	total := 0
	for _, v := range m {
		n++
		total += v
	}
	return n + total
}

func invert(m map[int]string) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Ranging a slice is always fine; the rule is about maps.
func sliceAppend(s []int) []int {
	var out []int
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

func suppressedCollect(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//iolint:ignore maporder fixture: keys are sorted before use, order cannot leak
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
