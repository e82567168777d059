"""Shared fixtures: the synthetic repositories the suite investigates."""

import pytest


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"\nacceptance: [{outcome}] {name}")

from repo_helpers import RepoBuilder, find_colliding_commits

from bictrace import gitio
from bictrace.gitio import RepoHandle


@pytest.fixture
def linear_repo(tmp_path):
    """Three commits on one file; shas returned oldest first."""
    rb = RepoBuilder(tmp_path / "linear")
    c1 = rb.commit(
        {"a.c": "int add(int a, int b) {\n  return a + b;\n}\n"}, "add a.c"
    )
    c2 = rb.commit(
        {"a.c": "int add(int a, int b) {\n  return a + b + 1;\n}\n"}, "off by one in add"
    )
    c3 = rb.commit(
        {"a.c": "int add(int a, int b) {\n  return a + b;\n}\n"}, "fix add: drop stray +1"
    )
    return rb, [c1, c2, c3]


CROSS_LIB_V1 = """\
struct event *core_alloc_event(int id) {
  struct event *ev = pool_take(id);
  if (!ev)
    return fallback_event(id);
  ev->id = id;
  return ev;
}
void core_notify_event(int id) {
  dispatch(core_alloc_event(id));
}
"""

# The buggy rewrite: drops the fallback path, so allocation can fail.
CROSS_LIB_V2 = """\
struct event *core_alloc_event(int id) {
  struct event *ev = dyn_alloc_event(id);
  ev->id = id;
  return ev;
}
void core_notify_event(int id) {
  dispatch(core_alloc_event(id));
}
"""

CROSS_LIB_V3 = CROSS_LIB_V2.replace("core_notify_event", "core_notify_event_gfp")

CROSS_DRIVER_V1 = """\
void driver_phy_hotplug(int phy) {
  int id = phy_to_event(phy);
  core_notify_event(id);
}
"""

CROSS_DRIVER_V2 = CROSS_DRIVER_V1.replace("core_notify_event", "core_notify_event_gfp")

CROSS_DRIVER_FIXED = """\
void driver_phy_hotplug(int phy) {
  int id = phy_to_event(phy);
  if (event_pool_ready())
    core_notify_event_gfp(id);
}
"""


@pytest.fixture
def cross_file_repo(tmp_path):
    """Fix in a driver file, root cause in a library file, refactor between.

    Returns (builder, info) where info maps base/bic/refactor/fix to shas.
    The fix touches only driver/hotplug.c while the planted bug-inducing
    commit touched only lib/events.c, so the case is cross-file.
    """
    rb = RepoBuilder(tmp_path / "crossfile")
    base = rb.commit(
        {"lib/events.c": CROSS_LIB_V1, "driver/hotplug.c": CROSS_DRIVER_V1},
        "initial event core and driver",
    )
    bic = rb.commit(
        {"lib/events.c": CROSS_LIB_V2},
        "rework event allocation to dynamic pool",
    )
    refactor = rb.commit(
        {"lib/events.c": CROSS_LIB_V3, "driver/hotplug.c": CROSS_DRIVER_V2},
        "rename notify API to *_gfp (no functional change)",
    )
    fix = rb.commit(
        {"driver/hotplug.c": CROSS_DRIVER_FIXED},
        "driver: guard hotplug notification against missing pool",
    )
    return rb, {"base": base, "bic": bic, "refactor": refactor, "fix": fix}


GHOST_UTIL_V1 = """\
int total_weight(struct list *items) {
  int total = 0;
  struct entry *entry;
  for_each(items, entry) {
    total += 1;
  }
  return total;
}
"""

# The buggy change: dereferences entry->weight without a null guard.
GHOST_UTIL_V2 = """\
int total_weight(struct list *items) {
  int total = 0;
  struct entry *entry;
  for_each(items, entry) {
    total += entry->weight;
  }
  return total;
}
"""

GHOST_UTIL_FIXED = """\
int total_weight(struct list *items) {
  int total = 0;
  struct entry *entry;
  for_each(items, entry) {
    if (!entry)
      continue;
    total += entry->weight;
  }
  return total;
}
"""


@pytest.fixture
def ghost_repo(tmp_path):
    """Addition-only fix (ghost): the fix inserts a guard above buggy use."""
    rb = RepoBuilder(tmp_path / "ghost")
    base = rb.commit({"util.c": GHOST_UTIL_V1}, "add total_weight")
    bic = rb.commit({"util.c": GHOST_UTIL_V2}, "account for entry weights")
    fix = rb.commit({"util.c": GHOST_UTIL_FIXED}, "guard against null entries")
    return rb, {"base": base, "bic": bic, "fix": fix}


@pytest.fixture
def prefix_repo(tmp_path):
    """A repo holding two commit objects that share a 7-character prefix."""
    rb = RepoBuilder(tmp_path / "prefix")
    anchor = rb.commit({"f.txt": "anchor\n"}, "anchor commit")
    tree = rb.git("rev-parse", "HEAD^{tree}").strip()
    body_a, body_b = find_colliding_commits(tree, anchor, prefix_len=7)
    first = rb.write_loose_commit(body_a)
    second = rb.write_loose_commit(body_b)
    assert first[:7] == second[:7] and first != second
    return rb, {"anchor": anchor, "twins": (first, second), "prefix": first[:7]}


@pytest.fixture
def linear_handle(linear_repo):
    rb, shas = linear_repo
    return RepoHandle(rb.path), shas


@pytest.fixture(scope="session")
def slow_repo(tmp_path_factory):
    """A repo bulky enough that history searches reliably exceed 1 ms.

    Session-scoped: building it writes a few MB. Timeout tests treat it as
    read-only and construct their own handles.
    """
    import random

    rb = RepoBuilder(tmp_path_factory.mktemp("bulk") / "slow")
    rng = random.Random(99)
    for c in range(2):
        files = {
            f"bulk{f}.txt": "".join(
                f"file{f} commit{c} line{i} {rng.randrange(1 << 40):012x}\n"
                for i in range(30000)
            )
            for f in range(2)
        }
        rb.commit(files, f"bulk payload {c}")
    return rb


@pytest.fixture
def time_out_git(monkeypatch):
    """Call it with a test on git's argv: each matching git call times out.

    The matching call is a real spawn with a deadline of 0, so git is
    started, killed and reaped as on any timeout.
    """
    real_spawn = gitio._spawn

    def install(when=lambda args: True):
        monkeypatch.setattr(
            gitio, "_spawn",
            lambda root, args, timeout: real_spawn(root, args, 0 if when(args) else timeout),
        )

    return install
