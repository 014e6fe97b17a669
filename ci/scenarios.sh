#!/usr/bin/env bash
# Run every registry scenario end to end through the quoptics CLI, writing
# CSV and JSON, plus the MCWF path of spontaneous-emission, which no
# scenario takes at its defaults. A numeric warning in any scenario or
# writer fails the run, and so does a JSON artifact that does not give back
# its own bytes when it is read and written again. The run ends by printing
# the SHA-256 of every JSON artifact and of the MCWF CSV, so that byte
# identity shows in the log.
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
python - "$out" "${artifacts[@]}" <<'EOF'
import pathlib
import sys

from quoptics.serialize import artifact_from_json, artifact_to_json

out = pathlib.Path(sys.argv[1])
for name in sys.argv[2:]:
    text = (out / name).read_text(encoding="utf-8")
    if artifact_to_json(artifact_from_json(text)) != text:
        sys.exit(f"{name}: written again after reading, the JSON differs")
EOF
(cd "$out" && sha256sum "${artifacts[@]}" spontaneous-emission-mcwf.csv)
