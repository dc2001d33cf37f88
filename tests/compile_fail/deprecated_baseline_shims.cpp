// Pins the [[deprecated]] attribute on the legacy baseline entry points.
// Control: calls compile with the warning suppressed (the shims still
// exist and still work). Misuse: the same calls with deprecation promoted
// to an error — the build must fail, proving every shim actually carries
// the attribute and in-tree callers compiled with ALPHAWAN_WERROR have
// all migrated to the policy objects / registry.
#include <utility>
#include <vector>

#include "baselines/lmac.hpp"
#include "baselines/random_cp.hpp"
#include "baselines/standard_lorawan.hpp"

namespace alphawan {

#ifdef CF_MISUSE
#pragma GCC diagnostic error "-Wdeprecated-declarations"
#else
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
#endif

void legacy_baseline_calls(Deployment& deployment, Network& network,
                           Rng& rng, std::vector<Transmission> txs) {
  apply_standard_lorawan(deployment, network, rng);
  apply_random_cp(deployment, network, rng);
  txs = lmac_schedule(std::move(txs), rng);
}

}  // namespace alphawan
