"""Session set-up shared by every test module."""

import pytest

from dualsketch import experiments


@pytest.fixture(scope="session", autouse=True)
def process_policy():
    """Run the whole session under the runtime policy every CLI run applies to its process.

    Without it, tests that call the library directly run at OpenBLAS's own
    thread count, so their roundoff (criterion 5's supplementary cap count
    among it) would depend on OPENBLAS_NUM_THREADS and the host's cores.
    """
    experiments._process_policy()
