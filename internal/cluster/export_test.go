package cluster

import "context"

// Reconcile runs one listing-based location reconcile, as the health
// loop does every reconcileEvery ticks.
func (rt *Router) Reconcile(ctx context.Context) { rt.reconcile(ctx) }
