package des_test

import (
	"fmt"

	"iobehind/internal/des"
)

// A producer/consumer pair in virtual time: the engine runs exactly one
// process at a time, so the output ordering is fully deterministic.
func Example() {
	e := des.NewEngine(1)
	items := make([]*des.Completion, 3)
	for i := range items {
		items[i] = des.NewCompletion(e)
	}

	e.Spawn("producer", func(p *des.Proc) {
		for _, item := range items {
			p.Sleep(des.Second)
			item.Complete()
		}
	})
	e.Spawn("consumer", func(p *des.Proc) {
		for i, item := range items {
			item.Wait(p)
			fmt.Printf("%v: got item %d\n", p.Now(), i)
		}
	})

	if err := e.Run(); err != nil {
		panic(err)
	}
	// Output:
	// 1.000s: got item 0
	// 2.000s: got item 1
	// 3.000s: got item 2
}

// A continuation chained onto a completion runs as a function event at
// the instant the completion fires: event-driven code reacts to it
// without a process.
func ExampleCompletion_Then() {
	e := des.NewEngine(1)
	done := des.NewCompletion(e)
	done.Then(func() { fmt.Println("continuation ran at", e.Now()) })
	e.Schedule(des.Time(3*des.Second), des.PrioNormal, done.Complete)
	if err := e.Run(); err != nil {
		panic(err)
	}
	// Output:
	// continuation ran at 3.000s
}

// A callback scheduled at an absolute virtual instant runs when the
// engine's clock reaches it.
func ExampleEngine_Schedule() {
	e := des.NewEngine(1)
	e.Schedule(des.Time(2*des.Second), des.PrioNormal, func() {
		fmt.Println("timer fired at", e.Now())
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	// Output:
	// timer fired at 2.000s
}
