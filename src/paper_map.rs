//! # Paper-to-code map
//!
//! Where each part of *Huang, Sistla, Wolfson, "Data Replication for Mobile
//! Computers" (SIGMOD 1994)* lives in this workspace. This module contains
//! no code — it is the annotated index for readers coming from the paper.
//!
//! ## §3 — The model
//!
//! | Paper concept | Implementation |
//! |---|---|
//! | relevant requests (reads at MC, writes at SC) | [`Request`](mdr_core::Request) |
//! | schedule (finite request sequence) | [`Schedule`](mdr_core::Schedule) |
//! | connection cost model | [`CostModel::Connection`](mdr_core::CostModel) |
//! | message cost model, data = 1 / control = ω | [`CostModel::Message`](mdr_core::CostModel) |
//! | request costs per allocation state | [`Action`](mdr_core::Action) + [`CostModel::price`](mdr_core::CostModel::price) |
//! | Poisson reads/writes, θ = λw/(λr+λw) | [`PoissonWorkload`](mdr_sim::PoissonWorkload) |
//! | "some concurrency control mechanism will serialize them" | the FIFO serialization in [`Simulation`](mdr_sim::Simulation) |
//! | expected cost `EXP_A(θ)` | [`expected_cost`](mdr_analysis::expected_cost) |
//! | average expected cost `AVG_A` (Eq. 1) | [`average_expected_cost`](mdr_analysis::average_expected_cost); operationally [`DriftingPoisson`](mdr_sim::DriftingPoisson) |
//! | c-competitiveness vs the offline algorithm M | [`opt_cost`](mdr_adversary::opt_cost) + [`measure`](mdr_adversary::measure) |
//!
//! ## §4 — The sliding-window algorithms
//!
//! | Paper concept | Implementation |
//! |---|---|
//! | the k-bit window ("drops the last bit … adds a bit") | [`RequestWindow`](mdr_core::RequestWindow) |
//! | SWk allocation/deallocation rule | [`SlidingWindow`](mdr_core::SlidingWindow) |
//! | "either the MC or the SC … is in charge" | [`MobileNode`](mdr_sim::MobileNode) / [`StationaryNode`](mdr_sim::StationaryNode) |
//! | piggybacked save-indication + window | [`WireMessage::DataResponse`](mdr_sim::WireMessage) |
//! | deallocating delete-request carrying the window | [`WireMessage::DeleteRequest`](mdr_sim::WireMessage) |
//! | the SW1 optimization (delete instead of data) | `k = 1` branch of [`SlidingWindow`](mdr_core::SlidingWindow) and of the SC node |
//!
//! ## §5 — Connection cost model
//!
//! | Result | Implementation | Reproduced by |
//! |---|---|---|
//! | Eq. 2/3 (statics) | [`connection::exp_st1`](mdr_analysis::connection::exp_st1) … | E1, E2 |
//! | Thm 1 / Eq. 5 (`EXP_SWk`) | [`connection::exp_swk`](mdr_analysis::connection::exp_swk); verified exactly by [`exact::exact_exp_swk`](mdr_analysis::exact::exact_exp_swk) | E1 |
//! | Thm 2 (dominance) | tests on [`connection::optimal_exp`](mdr_analysis::connection::optimal_exp) | E1 |
//! | Thm 3 / Eq. 6 (`AVG_SWk`) + Cor 1 | [`connection::avg_swk`](mdr_analysis::connection::avg_swk) | E2 |
//! | Thm 4 (tightly (k+1)-competitive) | [`competitive::swk_connection_factor`](mdr_analysis::competitive::swk_connection_factor); [`generators::swk_adversarial`](mdr_adversary::generators::swk_adversarial); [`verify_factor`](mdr_adversary::verify_factor) | E3 |
//!
//! ## §6 — Message cost model
//!
//! | Result | Implementation | Reproduced by |
//! |---|---|---|
//! | Eq. 7/8 (statics) | [`message::exp_st1`](mdr_analysis::message::exp_st1) … | E4, E5 |
//! | Thm 5 / Eq. 9 (`EXP_SW1`) | [`message::exp_sw1`](mdr_analysis::message::exp_sw1) | E4 |
//! | Thm 6 / **Figure 1** (regions) | [`dominance::message_winner`](mdr_analysis::dominance::message_winner) | E4 |
//! | Thm 8 / Eq. 11 (`EXP_SWk`, reconstructed) | [`message::exp_swk`](mdr_analysis::message::exp_swk); proved by [`exact`](mdr_analysis::exact) enumeration | E4 |
//! | Thm 9 (SWk dominated) | [`message::optimal_exp`](mdr_analysis::message::optimal_exp) | E4 |
//! | Thm 10 / Eq. 12 + Cors 2–3 | [`message::avg_swk`](mdr_analysis::message::avg_swk) | E5 |
//! | Cor 4 / **Figure 2** (`k₀(ω)`) | [`window_choice::k0_threshold`](mdr_analysis::window_choice::k0_threshold), [`window_choice::min_beneficial_k`](mdr_analysis::window_choice::min_beneficial_k) | E6 |
//! | Thms 11–12 (message-model competitiveness) | [`competitive::sw1_message_factor`](mdr_analysis::competitive::sw1_message_factor), [`competitive::swk_message_factor`](mdr_analysis::competitive::swk_message_factor) | E7 |
//!
//! ## §7 — Extensions
//!
//! | Result | Implementation | Reproduced by |
//! |---|---|---|
//! | §7.1 T1m / T2m | [`T1`](mdr_core::T1), [`T2`](mdr_core::T2); formulas in [`connection`](mdr_analysis::connection) / [`message`](mdr_analysis::message) | E8 |
//! | §7.2 multi-object static optimum | [`OperationProfile::optimal_allocation`](mdr_multi::OperationProfile::optimal_allocation) | E9 |
//! | §7.2 windowed dynamic variant | [`WindowedAllocator`](mdr_multi::WindowedAllocator) | E9, E14 |
//! | §7.2 closing proposal, single object | [`AdaptivePolicy`](mdr_core::AdaptivePolicy) *(extension)* | E11 |
//!
//! ## §9 — Conclusions
//!
//! The quantified guidance (k = 9 within 10% at 10-competitive, k = 15
//! within 6%, the ω ≤ 0.4 rule) is in
//! [`window_choice::recommend_k`](mdr_analysis::window_choice::recommend_k)
//! and reproduced by E10.
//!
//! ## Beyond the paper
//!
//! Adaptation latency (E12), lossy links with ARQ
//! ([`SimBuilder::arq`](mdr_sim::SimBuilder::arq), E13), and the
//! per-object baseline ([`PerObjectWindows`](mdr_multi::PerObjectWindows),
//! E14) — all documented as extensions in DESIGN.md.
