"""Output checks shared by the workers; stdlib only.

An op's output is reduced to a digest. The content checks (no stage errors,
strict JSON, both zeta estimates near the truth) run on the reference
output; an op passes when its digest equals the reference digest and the
reference passes its checks.
"""

from __future__ import annotations

import hashlib
import json
import math

ZETA_TRUE = 0.00245
NOISE_SIGMA = 0.004
# an estimate further than this many noise standard errors from the truth
# fails the op; the worst seen over four seeds was about 4
ZETA_SIGMAS = 8.0


def digest(*texts: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


def check_report_json(text: str) -> list[str]:
    """Content problems of one analysis report, empty when it passes."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"JSON does not parse strictly: {exc}"]
    problems = [f"stage error {e['stage']}: {e['message']}" for e in doc["errors"]]
    limit = ZETA_SIGMAS * NOISE_SIGMA / math.sqrt(doc["n"])
    for method in ("least_squares", "irr_root"):
        est = doc["ssf"][method]
        if est is None:
            problems.append(f"no {method} estimate")
        elif not abs(est["zeta"] - ZETA_TRUE) <= limit:
            problems.append(f"{method} zeta {est['zeta']} is more than {limit:.3g} from {ZETA_TRUE}")
    return problems
