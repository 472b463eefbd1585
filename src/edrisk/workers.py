"""Calls run in forked children, which share this process's pages copy-on-write:
their inputs need no pickling, and only a result or an exception comes back."""

import multiprocessing
import os


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def _send(conn, call):
    """A child's work: send ``call``'s result, or the exception it raised."""
    try:
        conn.send(call())
    except Exception as e:
        conn.send(e)


def run_forked(calls, died: Exception, local=None) -> list:
    """``[local()]`` (when given) plus each of ``calls``' results, each call
    run in a forked child while this process runs ``local``.  A child's
    exception is raised here as it was raised there, a child that exits
    without sending anything raises ``died``, and no child outlives the call."""
    children = []
    try:
        for call in calls:
            conn, child_end = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(target=_send, args=(child_end, call))
            child.start()
            children.append((child, conn))
            child_end.close()  # open in the child alone, so a child that dies reads as EOF
        results = [local()] if local is not None else []
        for _, conn in children:
            try:
                results.append(conn.recv())
            except EOFError:
                raise died from None
            if isinstance(results[-1], Exception):
                raise results[-1]
        return results
    finally:
        for child, _ in children:
            child.kill()  # done sending, or blocked sending a result that will not be read
            child.join()
