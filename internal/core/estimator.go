package core

import (
	"repro/internal/geom"
	"repro/internal/predict"
	"repro/internal/radio"
)

// NeighborReport is the per-neighbour knowledge a PAS node accumulates from
// RESPONSE messages. The type (and the §3.3 estimators below) live in the
// predict package since PR 9 carved prediction into a plugin layer; the
// aliases keep the historical core names working.
type NeighborReport = predict.Report

// ScalarVelocity encodes a speed-only (directionless) estimate as a vector
// whose magnitude carries the speed; SAS uses it since its simple estimator
// produces no direction. Responses built from it must leave HasDirection
// unset, so receivers never mistake the placeholder +x heading for a real
// one.
func ScalarVelocity(speed float64) geom.Vec2 { return predict.SpeedOnly(speed) }

// ReportFromResponse converts a RESPONSE from a neighbour into the report
// its receiver stores.
func ReportFromResponse(from radio.NodeID, r Response, now float64) NeighborReport {
	return NeighborReport{
		ID:               from,
		Pos:              r.Pos,
		State:            r.State,
		Velocity:         r.Velocity,
		HasVelocity:      r.HasVelocity,
		HasDirection:     r.HasDirection,
		PredictedArrival: r.PredictedArrival,
		DetectedAt:       r.DetectedAt,
		Detected:         r.Detected,
		ReceivedAt:       now,
	}
}

// ActualVelocity is the paper's §3.3 covered-node estimator; see
// predict.ActualVelocity.
func ActualVelocity(x geom.Vec2, xDetectedAt float64, reports []NeighborReport, minDt float64) (geom.Vec2, bool) {
	return predict.ActualVelocity(x, xDetectedAt, reports, minDt)
}

// ExpectedVelocity is the paper's alert/safe-node estimator; see
// predict.ExpectedVelocity.
func ExpectedVelocity(reports []NeighborReport) (geom.Vec2, bool) {
	return predict.ExpectedVelocity(reports)
}

// ArrivalETA is the paper's single-report arrival estimate; see
// predict.ArrivalETA.
func ArrivalETA(x geom.Vec2, now float64, r NeighborReport) float64 {
	return predict.ArrivalETA(x, now, r)
}

// MinETA is the paper's minimum aggregation rule; see predict.MinETA.
func MinETA(x geom.Vec2, now float64, reports []NeighborReport, maxAge float64) float64 {
	return predict.MinETA(x, now, reports, maxAge)
}

// MeanETA is the mean-aggregation ablation; see predict.MeanETA.
func MeanETA(x geom.Vec2, now float64, reports []NeighborReport, maxAge float64) float64 {
	return predict.MeanETA(x, now, reports, maxAge)
}
