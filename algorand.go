// Package algorand is a from-scratch Go reproduction of "Algorand:
// Scaling Byzantine Agreements for Cryptocurrencies" (Gilad, Hemo,
// Micali, Vlachos, Zeldovich — SOSP 2017).
//
// The package is the public façade over the implementation:
//
//   - cryptographic sortition on a VRF we implement ourselves
//     (edwards25519 + ECVRF-EDWARDS25519-SHA512-TAI);
//   - BA⋆, the paper's Byzantine agreement protocol (Algorithms 3-9);
//   - block proposal with priority gossip (§6);
//   - a ledger with seeds, certificates, a durable archive and
//     trustless catch-up (§5, §8);
//   - a deterministic whole-network simulator reproducing the paper's
//     evaluation setup (§10), including adversaries;
//   - an access tier of gateways that gossip client payments to every
//     user as a node does (§4) and answer reads from a certified replica;
//   - the committee-size analysis of §7.5 (Figure 3) and a Nakamoto
//     (Bitcoin) baseline for the throughput comparison (§10.2).
//
// Quick start:
//
//	cfg := algorand.NewSimConfig(50, 3) // 50 users, 3 rounds
//	c := algorand.NewCluster(cfg)
//	c.Run()
//	fmt.Println(algorand.Summarize(c.AllRoundLatencies(1, 3)))
//
// See examples/ for complete programs and DESIGN.md / EXPERIMENTS.md
// for the reproduction methodology.
package algorand

import (
	"time"

	"algorand/internal/baseline"
	"algorand/internal/committee"
	"algorand/internal/crypto"
	"algorand/internal/gateway"
	"algorand/internal/genesis"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/sim"
	"algorand/internal/sortition"
)

// --- Core types -----------------------------------------------------------

// Params are the protocol parameters (Figure 4 of the paper).
type Params = params.Params

// Digest is a 32-byte SHA-256 hash (block hashes, seeds).
type Digest = crypto.Digest

// PublicKey identifies a user.
type PublicKey = crypto.PublicKey

// Identity is a user's secret-key handle (signing + VRF).
type Identity = crypto.Identity

// CryptoProvider verifies signatures and VRF proofs; Real uses Ed25519
// and our ECVRF, Fast uses keyed hashes with modeled CPU costs.
type CryptoProvider = crypto.Provider

// Transaction is a signed payment.
type Transaction = ledger.Transaction

// Block is one ledger entry (§8.1).
type Block = ledger.Block

// Certificate is the §8.3 vote aggregate proving a block's commitment.
type Certificate = ledger.Certificate

// Ledger is a user's view of the blockchain.
type Ledger = ledger.Ledger

// LedgerConfig tunes seed rotation, weight look-back and timestamp
// checks.
type LedgerConfig = ledger.Config

// CommitteeParams tells certificate verification the committee sizing;
// derive it from the protocol parameters with CommitteeParamsFor.
type CommitteeParams = ledger.CommitteeParams

// CommitteeParamsFor derives the certificate-verification configuration
// — committee sizes, thresholds and the step bound — from protocol
// parameters, the same derivation every verifier of the chain uses.
func CommitteeParamsFor(p Params) CommitteeParams { return node.CommitteeParamsFor(p) }

// SortitionResult is the outcome of Algorithm 1.
type SortitionResult = sortition.Result

// SortitionRole names what a user may be selected for.
type SortitionRole = sortition.Role

// --- Simulation -----------------------------------------------------------

// SimConfig describes a simulated deployment (§10 setup).
type SimConfig = sim.Config

// Cluster is a running simulated deployment.
type Cluster = sim.Cluster

// Percentiles summarizes a latency sample as the paper's figures do.
type Percentiles = sim.Percentiles

// NetworkConfig is what a simulation sets of the gossip transport: its
// seed and the Figure 6 grouping of processes onto VMs.
type NetworkConfig = network.Config

// --- Access tier ------------------------------------------------------------

// Gateway is one access-tier node: the user-facing front door between
// clients and the consensus cluster (edge validation, TxBatch gossip with
// a resend paced by the chain, a read model that asks its neighbours in
// turn for the chain past its head).
// Consensus nodes behind gateways carry zero client connections.
type Gateway = gateway.Gateway

// GatewayConfig assembles a gateway (set SimConfig.Gateways to add an
// access tier to a simulation).
type GatewayConfig = gateway.Config

// GatewayStats is a gateway's end-of-run books.
type GatewayStats = gateway.Stats

// ListenAndServeGateway opens a gateway's client-facing TCP/JSON
// endpoint (submissions, batches, and {"op":...} queries), hardened
// for hostile clients: connection caps with retry hints, frame-size
// limits, idle reaping, typed errors.
func ListenAndServeGateway(addr string, gw *Gateway) (*gateway.Server, error) {
	return gateway.ListenAndServe(addr, gw)
}

// DefaultParams returns the paper's implementation parameters
// (Figure 4): τ_proposer=26, τ_step=2000, T_step=0.685, τ_final=10000,
// T_final=0.74, λ values in seconds.
func DefaultParams() Params { return params.Default() }

// NewSimConfig returns a simulation of n users for the given number of
// rounds, with the paper's protocol structure at laptop scale (see
// DESIGN.md for the scaling discussion).
func NewSimConfig(n int, rounds uint64) SimConfig { return sim.DefaultConfig(n, rounds) }

// NewCluster builds a simulated deployment. Call Run on the result.
func NewCluster(cfg SimConfig) *Cluster { return sim.NewCluster(cfg) }

// Summarize computes min/p25/median/p75/max of a duration sample.
func Summarize(sample []time.Duration) Percentiles { return sim.Summarize(sample) }

// --- Crypto ----------------------------------------------------------------

// NewRealCrypto returns the full-fidelity provider: Ed25519 signatures
// and ECVRF-EDWARDS25519-SHA512-TAI proofs, both implemented in this
// repository.
func NewRealCrypto() CryptoProvider { return crypto.NewReal() }

// NewFastCrypto returns the simulation-grade provider with modeled CPU
// costs (the paper's replace-verification-with-sleeps methodology).
func NewFastCrypto() CryptoProvider { return crypto.NewFast() }

// NewSeed derives a deterministic identity seed.
func NewSeed(x uint64) crypto.Seed { return crypto.SeedFromUint64(x) }

// RandomSeed draws a fresh identity seed from the OS entropy source.
func RandomSeed() (crypto.Seed, error) { return crypto.RandomSeed() }

// SaveSeed / LoadSeed persist identity seeds — a user's only private
// state (§1) — as 0600 key files.
func SaveSeed(path string, seed crypto.Seed) error { return crypto.SaveSeed(path, seed) }

// LoadSeed reads a key file written by SaveSeed.
func LoadSeed(path string) (crypto.Seed, error) { return crypto.LoadSeed(path) }

// --- Genesis ceremony -------------------------------------------------------

// GenesisCeremony is the §8.3 commit-reveal ceremony that derives an
// unpredictable seed₀ once the initial participants are known.
type GenesisCeremony = genesis.Ceremony

// GenesisCommitment / GenesisReveal are the ceremony's two message kinds.
type GenesisCommitment = genesis.Commitment

// GenesisReveal publishes a committed contribution.
type GenesisReveal = genesis.Reveal

// GenesisContribution is one participant's secret randomness.
type GenesisContribution = genesis.Contribution

// NewGenesisCeremony starts a ceremony.
func NewGenesisCeremony(p CryptoProvider) *GenesisCeremony { return genesis.NewCeremony(p) }

// CommitGenesis builds a participant's signed commitment.
func CommitGenesis(id Identity, c GenesisContribution) GenesisCommitment {
	return genesis.Commit(id, c)
}

// --- Sortition --------------------------------------------------------------

// Sortition runs Algorithm 1: it selects the identity for a role in
// proportion to weight w out of total weight W, with expected tau
// selections overall, and returns the proof.
func Sortition(id Identity, seed []byte, role SortitionRole, tau, w, W uint64) SortitionResult {
	return sortition.Execute(id, seed, role, tau, w, W)
}

// VerifySortition runs Algorithm 2: it checks a sortition proof and
// returns the verified number of selected sub-users (0 if invalid).
func VerifySortition(p CryptoProvider, pk PublicKey, proof, seed []byte, role SortitionRole, tau, w, W uint64) (crypto.VRFOutput, uint64) {
	return sortition.Verify(p, pk, proof, seed, role, tau, w, W)
}

// Role kinds for sortition.
const (
	RoleProposer     = sortition.RoleProposer
	RoleCommittee    = sortition.RoleCommittee
	RoleForkProposer = sortition.RoleForkProposer
)

// --- Analysis ----------------------------------------------------------------

// MinCommitteeSize computes the smallest expected committee size (and
// the threshold to use with it) keeping the probability of violating
// BA⋆'s committee constraints below target, for honest weighted
// fraction h — the §7.5 / Figure 3 computation.
func MinCommitteeSize(h, target float64) (tau uint64, threshold float64) {
	return committee.MinTau(h, target)
}

// CommitteeViolationProb evaluates the §7.5 violation probability for a
// given committee configuration.
func CommitteeViolationProb(tau float64, h, threshold float64) float64 {
	return committee.StepViolationProb(tau, h, threshold)
}

// --- Baseline -----------------------------------------------------------------

// BitcoinBaseline simulates Nakamoto consensus at Bitcoin parameters
// for the given duration, for throughput/latency comparisons (§10.2).
func BitcoinBaseline(duration time.Duration) baseline.Result {
	return baseline.Run(baseline.Bitcoin(), duration)
}

// --- Ledger helpers -------------------------------------------------------------

// CatchUp bootstraps a new user by validating a chain of blocks and
// certificates from genesis (§8.3).
func CatchUp(
	p CryptoProvider,
	cfg LedgerConfig,
	genesisAccounts map[PublicKey]uint64,
	seed0 Digest,
	blocks []*Block,
	certs []*Certificate,
	cp CommitteeParams,
) (*Ledger, error) {
	return ledger.CatchUp(p, cfg, genesisAccounts, seed0, blocks, certs, cp)
}
