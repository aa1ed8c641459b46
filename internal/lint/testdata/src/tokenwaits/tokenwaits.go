// Package tokenwaits exercises tokenhold's blocking-wait rule. The harness
// lists this package in TokenPackages: code here may run on pool workers,
// so parking the goroutine parks a worker.
package tokenwaits

import "sync"

func recv(ch chan int) int {
	return <-ch // want `blocking channel receive on the worker-pool path`
}

func race(a, b chan int) {
	select { // want `select without default blocks on the worker-pool path`
	case a <- 1:
	case b <- 2:
	}
}

// A select with a default never blocks. Clean.
func poll(a chan int) bool {
	select {
	case a <- 1:
		return true
	default:
		return false
	}
}

func wait(wg *sync.WaitGroup) {
	wg.Wait() // want `sync wg\.Wait blocks on the worker-pool path`
}

func condWait(c *sync.Cond) {
	c.Wait() // want `sync c\.Wait blocks on the worker-pool path`
}

// The audited-debt pattern: a wait that provably runs on no pool worker
// carries a //repro:allow with the reason. The harness runs with
// unused-allow reporting on, so the annotation must really be consumed.
func drain(wg *sync.WaitGroup) {
	//repro:allow tokenhold shutdown drain after every worker has exited; this goroutine is not a pool worker
	wg.Wait()
}

// Wait methods from other packages (not sync) are not flagged.
type group struct{}

func (group) Wait() {}

func other(g group) { g.Wait() }
