"""Set-up probe: a fresh process imports upliftemm, loads the generated
JSON and runs the first reduce -> solve -> uplift.

Usage: python3 setup_probe.py SRC_DIR MARKET_JSON PLAN_JSON
"""

import sys
import warnings

src, market_path, plan_path = sys.argv[1:4]
sys.path.insert(0, src)
warnings.filterwarnings("ignore", "reduced market has")

from upliftemm.io import load_json, market_from_json, plan_from_json  # noqa: E402
from upliftemm.uplift import build_uplifted_emm  # noqa: E402

build_uplifted_emm(
    market_from_json(load_json(market_path)), plan_from_json(load_json(plan_path))
)
