#!/usr/bin/env bash
# Run every registry scenario end to end through the quoptics CLI, writing
# CSV and JSON, plus the MCWF path of spontaneous-emission, which no
# scenario takes at its defaults. A numeric warning in any scenario or
# writer fails the run. The run ends by printing the SHA-256 of every JSON
# artifact and of the MCWF CSV, so that byte identity shows in the log.
#
# usage: ci/scenarios.sh OUT_DIR
set -euo pipefail
out=${1:?usage: ci/scenarios.sh OUT_DIR}
mkdir -p "$out"
export PYTHONWARNINGS=error::RuntimeWarning
quoptics list > "$out/scenarios.txt"
artifacts=()
for name in $(grep -v '^ ' "$out/scenarios.txt"); do
  quoptics run "$name" --format csv --out "$out/$name.csv"
  quoptics run "$name" --format json --out "$out/$name.json"
  artifacts+=("$name.json")
done
echo '{"trajectories": 200}' > "$out/mcwf.json"
quoptics run spontaneous-emission --config "$out/mcwf.json" \
  --format csv --out "$out/spontaneous-emission-mcwf.csv"
(cd "$out" && sha256sum "${artifacts[@]}" spontaneous-emission-mcwf.csv)
