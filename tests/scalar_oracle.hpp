// The recorded scalar reference pipeline: one digest per differential test
// case, produced by the scalar receive pipeline before it was deleted and
// stored in tests/golden/scalar_oracle_digests.txt. The batched pipeline —
// now the only one — must reproduce every entry bit for bit.
#pragma once

#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace alphawan::oracle {

// "<test> <case seed>" -> digest hex, parsed once per process.
inline const std::map<std::string, std::string>& scalar_digests() {
  static const std::map<std::string, std::string> digests = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(std::string(ALPHAWAN_GOLDEN_DIR) +
                     "/scalar_oracle_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string test;
      std::string seed;
      std::string hex;
      if (fields >> test >> seed >> hex) out[test + " " + seed] = hex;
    }
    return out;
  }();
  return digests;
}

// The recorded digest of one case; a placeholder that matches no digest
// when the file lacks the case, so the caller's comparison fails loudly.
inline std::string scalar_digest(const std::string& test,
                                 const std::string& seed) {
  const auto& digests = scalar_digests();
  const auto it = digests.find(test + " " + seed);
  return it == digests.end() ? "<no recorded digest for " + test + " " +
                                   seed + ">"
                             : it->second;
}

}  // namespace alphawan::oracle
