"""Traffic speed prediction on road graphs with heterogeneous sampling frequency."""

import ctypes
import os

__version__ = "0.1.0"


def _keep_heap_top() -> None:
    """Have glibc keep 16 MB of free memory at the top of its heap rather than
    return it to the system.  A forward or training chunk allocates and frees
    a few MB of arrays; glibc returns freed memory at the heap top once it
    exceeds twice the largest mapped block freed so far, so whether the next
    chunk faults those pages in again depended on what set-up happened to
    free (about 1,000 minor page faults per README-config evaluation pass
    without a large set-up block).  The mmap threshold stays dynamic.  Other
    C libraries are left as they are."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if libc and libc.startswith("glibc"):
        ctypes.CDLL(None).mallopt(-2, 16 << 20)  # M_TOP_PAD


_keep_heap_top()
