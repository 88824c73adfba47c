#include "diagnosis/union_diagnoser.hpp"

#include <algorithm>
#include <functional>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

/// Mean prior weight over [lo, hi); 0 for an empty prior (uniform order).
double meanWeight(const std::vector<double>& prior, std::size_t lo, std::size_t hi) {
  if (prior.empty() || hi <= lo) return 0.0;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += prior[i];
  return sum / static_cast<double>(hi - lo);
}

void setRange(BitVector& bits, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) bits.set(i);
}

}  // namespace

UnionRefinement UnionDiagnoser::refine(const BitVector& candidatePositions,
                                       const std::vector<double>& adiPrior,
                                       const IntervalOracle& oracle) const {
  const std::size_t length = topology_->maxChainLength();
  SCANDIAG_REQUIRE(candidatePositions.size() == length,
                   "candidate positions do not match the selection axis");
  SCANDIAG_REQUIRE(adiPrior.empty() || adiPrior.size() == length,
                   "ADI prior does not match the selection axis");

  UnionRefinement out;
  out.confirmed = BitVector(length);
  out.unresolved = BitVector(length);

  // Maximal contiguous candidate segments, queried whole first (the
  // set-cover step), highest mean ADI first so the likeliest accidental
  // survivors are spent budget on before the tail.
  struct Segment {
    std::size_t lo, hi;
    double weight;
  };
  std::vector<Segment> segments;
  std::size_t lo = BitVector::npos;
  for (std::size_t i = 0; i <= length; ++i) {
    const bool inCand = i < length && candidatePositions.test(i);
    if (inCand && lo == BitVector::npos) lo = i;
    if (!inCand && lo != BitVector::npos) {
      segments.push_back({lo, i, meanWeight(adiPrior, lo, i)});
      lo = BitVector::npos;
    }
  }
  std::stable_sort(segments.begin(), segments.end(), [](const Segment& a, const Segment& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.lo < b.lo;
  });

  const std::function<void(std::size_t, std::size_t, bool)> visit =
      [&](std::size_t vlo, std::size_t vhi, bool knownFailing) {
        if (!knownFailing) {
          if (out.sessions >= config_.sessionBudget) {
            setRange(out.unresolved, vlo, vhi);
            return;
          }
          ++out.sessions;
          if (!oracle(vlo, vhi)) return;  // exonerated
        }
        if (vhi - vlo == 1) {
          out.confirmed.set(vlo);
          return;
        }
        ++out.splits;
        const std::size_t mid = vlo + (vhi - vlo) / 2;
        // ADI decides which half to query; the other half is inferred
        // failing on a pass (the parent failed) and queried otherwise (with
        // k faults both halves can fail — no single-fault inference).
        const bool rightFirst =
            meanWeight(adiPrior, mid, vhi) > meanWeight(adiPrior, vlo, mid);
        const std::size_t qlo = rightFirst ? mid : vlo;
        const std::size_t qhi = rightFirst ? vhi : mid;
        const std::size_t olo = rightFirst ? vlo : mid;
        const std::size_t ohi = rightFirst ? mid : vhi;
        if (out.sessions >= config_.sessionBudget) {
          setRange(out.unresolved, vlo, vhi);
          return;
        }
        ++out.sessions;
        if (oracle(qlo, qhi)) {
          visit(qlo, qhi, /*knownFailing=*/true);
          visit(olo, ohi, /*knownFailing=*/false);
        } else {
          visit(olo, ohi, /*knownFailing=*/true);
        }
      };

  for (const Segment& seg : segments) visit(seg.lo, seg.hi, /*knownFailing=*/false);

  if (out.splits > 0) obs::count(obs::Counter::UnionSplits, out.splits);
  out.candidates.positions = out.confirmed | out.unresolved;
  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  out.complete = out.unresolved.none();
  return out;
}

std::vector<double> adiPriorFromGoodCaptures(const ScanTopology& topology,
                                             const std::vector<BitVector>& goodCaptures) {
  SCANDIAG_REQUIRE(goodCaptures.size() == topology.numCells(),
                   "good captures do not match the topology");
  std::vector<double> prior(topology.maxChainLength(), 0.0);
  for (std::size_t cell = 0; cell < goodCaptures.size(); ++cell) {
    const BitVector& stream = goodCaptures[cell];
    if (stream.size() < 2) continue;
    std::size_t transitions = 0;
    for (std::size_t t = 1; t < stream.size(); ++t) {
      if (stream.test(t) != stream.test(t - 1)) ++transitions;
    }
    prior[topology.location(cell).position] +=
        static_cast<double>(transitions) / static_cast<double>(stream.size() - 1);
  }
  return prior;
}

}  // namespace scandiag
