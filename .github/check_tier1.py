"""Pass a tier-1 JUnit report only when the by-design failure is the one.

Acceptance criterion 1 fails by design (ROADMAP.md), so pytest always exits
1.  Usage: ``python .github/check_tier1.py tier1.xml``.  Exits 0 when the
failed or errored test cases are exactly the expected set, 1 otherwise,
naming the unexpected and the missing ones.
"""

import sys
import xml.etree.ElementTree as ET

# JUnit names a test case <classname>::<name>
EXPECTED = {"tests.test_acceptance::"
            "test_criterion_1_closed_form_curvature_anchor"}


def main(path: str) -> int:
    cases = list(ET.parse(path).iter("testcase"))
    failed = {"%s::%s" % (c.get("classname"), c.get("name"))
              for c in cases
              if c.find("failure") is not None
              or c.find("error") is not None}
    print("%d test cases, failed or errored: %s"
          % (len(cases), sorted(failed)))
    if failed == EXPECTED:
        return 0
    print("unexpected: %s; missing: %s"
          % (sorted(failed - EXPECTED), sorted(EXPECTED - failed)))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
