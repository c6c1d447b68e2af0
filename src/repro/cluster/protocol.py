"""The rank-context protocol shared by every execution substrate.

:class:`BaseRankContext` is the abstract contract between compositing
algorithms and the machine they run on.  A rank program is an ``async
def`` coroutine taking a context; the context exposes MPI-flavoured
verbs (``send``/``recv``/``sendrecv``/``isend``/``irecv``/``wait``),
staging and accounting hooks, and modelled-computation charging.  Two substrates implement it:

* :class:`~repro.cluster.context.RankContext` — the discrete-event
  simulator (modelled virtual time),
* :class:`~repro.cluster.mp_backend.MPRankContext` — real OS processes
  over multiprocessing queues (wall-clock time).

Because the surface is an ABC, a substrate that forgets a verb fails at
class-instantiation time instead of deep inside a compositing stage —
the API drift that used to be invisible until runtime is now a test
failure.

Payload sizing
--------------
:func:`encode_payload` sizes *and* serializes a payload in one pass:
buffer-like payloads (``bytes``/``memoryview``/numpy) pass through
untouched with their true buffer size, while arbitrary objects are
pickled exactly once — the resulting blob is both the priced size and
the bytes a real transport ships.  :func:`payload_nbytes` remains the
sizing-only convenience used by the simulator (which never serializes).
"""

from __future__ import annotations

import abc
import pickle
import time
from typing import Any, NamedTuple, Optional

from ..errors import ConfigurationError, SimulationError
from .events import ANY_TAG
from .stats import RankStats

__all__ = [
    "BaseRankContext",
    "EncodedPayload",
    "encode_payload",
    "decode_payload",
    "payload_nbytes",
    "drive",
]


class EncodedPayload(NamedTuple):
    """A payload sized and serialized in a single pass.

    ``wire`` is what a real transport ships: the original object for
    buffer-like payloads (which any transport moves without pickling),
    or the pickled blob for arbitrary objects.  ``nbytes`` is the priced
    wire size; ``pickled`` says whether :func:`decode_payload` must
    unpickle on the receiving side.
    """

    wire: Any
    nbytes: int
    pickled: bool


def encode_payload(payload: Any, nbytes: Optional[int] = None) -> EncodedPayload:
    """Size and (when necessary) serialize ``payload`` exactly once.

    ``bytes``/``bytearray``/``memoryview`` and numpy arrays report their
    true buffer size and pass through unserialized; ``None`` is a
    zero-byte control message.  Any other object is pickled once — the
    blob is both shipped and measured, so transports never pay a second
    serialization just to learn the size.  An explicit ``nbytes``
    overrides the priced size (never the wire representation).
    """
    if payload is None:
        return EncodedPayload(None, 0 if nbytes is None else int(nbytes), False)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return EncodedPayload(
            payload, len(payload) if nbytes is None else int(nbytes), False
        )
    size_attr = getattr(payload, "nbytes", None)
    if isinstance(size_attr, int):
        return EncodedPayload(
            payload, size_attr if nbytes is None else int(nbytes), False
        )
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable: caller must size it
        raise ConfigurationError(
            f"cannot infer wire size of {type(payload).__name__}; pass nbytes= explicitly"
        ) from exc
    return EncodedPayload(blob, len(blob) if nbytes is None else int(nbytes), True)


def decode_payload(wire: Any, pickled: bool) -> Any:
    """Inverse of :func:`encode_payload` on the receiving side."""
    return pickle.loads(wire) if pickled else wire


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload (sizing only, no shipping)."""
    return encode_payload(payload).nbytes


def drive(coro) -> Any:
    """Run a rank coroutine to completion on a synchronous transport.

    Real-transport contexts implement every verb with blocking calls
    inside ``async`` methods that never suspend, so the coroutine runs
    to ``StopIteration`` without an event loop.  A yield means the
    program awaited a raw simulator op, which no real transport can
    honour.
    """
    try:
        while True:
            yielded = coro.send(None)
            raise SimulationError(
                f"operation {yielded!r} is not supported on a real transport "
                "(simulator-only primitive)"
            )
    except StopIteration as stop:
        return stop.value


class BaseRankContext(abc.ABC):
    """Abstract per-rank view of the machine, shared by all substrates.

    Concrete helpers (``note``, ``charge_*``, ``wait_all``,
    ``_check_peer``) are implemented here against the abstract surface
    so substrates cannot drift apart on the parts algorithms rely on.
    """

    #: Human-readable substrate name used in error messages.
    backend_name: str = "abstract"

    # ---- identity ----------------------------------------------------------
    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This rank's index in ``0..size-1``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks in the run."""

    @property
    def model(self):
        """The machine cost model; only the simulator has one."""
        raise ConfigurationError(
            f"the {self.backend_name} backend has no machine model"
        )

    @property
    @abc.abstractmethod
    def stats(self) -> RankStats:
        """Per-stage accounting for this rank."""

    # ---- staging -----------------------------------------------------------
    def begin_stage(self, stage: int) -> None:
        """Route subsequent accounting into stage bucket ``stage``.

        Concrete on the base: substrates implement only the storage
        (:meth:`_set_stage`), so the stage-entry fault hook fires
        identically on every substrate.
        """
        self._set_stage(int(stage))
        injector = self._fault_injector
        if injector is not None:
            injector.on_stage(int(stage))

    @abc.abstractmethod
    def _set_stage(self, stage: int) -> None:
        """Store the active stage bucket index (substrate storage only)."""

    @property
    @abc.abstractmethod
    def current_stage(self) -> int:
        """The active stage bucket index."""

    def note(self, kind: str, count: int = 1) -> None:
        """Record a zero-cost named counter in the current stage bucket."""
        self.stats.stage(self.current_stage).add_counter(kind, count)

    # ---- fault injection ---------------------------------------------------
    #: The installed :class:`~repro.cluster.faults.RankFaultInjector`
    #: (class-level default keeps plain contexts fault-free for free).
    _fault_injector = None

    def install_fault_injector(self, injector) -> None:
        """Attach a per-rank fault injector (see :mod:`repro.cluster.faults`).

        The context consults it at stage entries (``begin_stage``),
        before every outgoing message, and at explicit
        :meth:`fault_checkpoint` calls.  ``None`` uninstalls.
        """
        self._fault_injector = injector

    def fault_checkpoint(self, phase: str) -> None:
        """Give an installed injector a chance to crash this rank at a
        named pipeline phase boundary; a no-op without an injector.

        Also records the phase so failure reports (and
        :class:`~repro.errors.DeadlockError` diagnostics) can name where
        the rank was, even without an injector installed.
        """
        self._current_phase = phase
        injector = self._fault_injector
        if injector is not None:
            injector.checkpoint(phase, stage=self.current_stage)

    #: Last pipeline phase this rank entered (set by ``fault_checkpoint``).
    _current_phase: Optional[str] = None

    @property
    def current_phase(self) -> Optional[str]:
        """The pipeline phase the rank last entered, or ``None``."""
        return self._current_phase

    # ---- stage checkpointing ----------------------------------------------
    #: The installed :class:`~repro.cluster.recovery.StageCheckpointer`
    #: (class-level default keeps plain contexts checkpoint-free for free).
    _checkpointer = None

    def install_checkpointer(self, checkpointer) -> None:
        """Attach a per-rank stage checkpointer (see
        :mod:`repro.cluster.recovery`).  The compositing engine consults
        it to restore a resume point before its stage loop and to
        snapshot after each completed exchange stage.  ``None``
        uninstalls.
        """
        self._checkpointer = checkpointer

    @property
    def checkpointer(self):
        """The installed stage checkpointer, or ``None``."""
        return self._checkpointer

    # ---- progress streaming ------------------------------------------------
    #: The installed :class:`~repro.cluster.progress.ProgressFeed`
    #: (class-level default keeps plain contexts feed-free for free).
    _progress = None

    def install_progress(self, feed) -> None:
        """Attach a live progress feed (see
        :mod:`repro.cluster.progress`).  The compositing engines emit a
        partial-frame event after each completed exchange stage /
        completed tile.  Emission copies pixels and charges nothing, so
        an installed feed never changes the run's accounting.  ``None``
        uninstalls.
        """
        self._progress = feed

    @property
    def progress(self):
        """The installed progress feed, or ``None``."""
        return self._progress

    def _message_faults(self, verb: str, dst: int, tag: int):
        """Injector verdict for one outgoing message (``None`` = clean)."""
        injector = self._fault_injector
        if injector is None:
            return None
        return injector.on_message(verb, dst, tag, stage=self.current_stage)

    # ---- computation -------------------------------------------------------
    @abc.abstractmethod
    async def compute(self, seconds: float, *, kind: str = "compute", count: int = 0) -> None:
        """Charge ``seconds`` of local computation (modelled substrates)
        and record ``count`` under the ``kind`` counter (all substrates)."""

    def _op_seconds(self, kind: str, count: int) -> float:
        """Modelled seconds for ``count`` operations of ``kind``.

        Real transports return 0.0 — wall clocks measure themselves; the
        simulator overrides this with machine-model pricing.
        """
        return 0.0

    async def charge_over(self, npixels: int) -> None:
        """Charge ``npixels`` over-operator composites (model ``To``)."""
        await self.compute(self._op_seconds("over", npixels), kind="over", count=npixels)

    async def charge_encode(self, npixels: int) -> None:
        """Charge an RLE scan of ``npixels`` pixels (model ``Tencode``)."""
        await self.compute(self._op_seconds("encode", npixels), kind="encode", count=npixels)

    async def charge_bound(self, npixels: int) -> None:
        """Charge a bounding-rect scan of ``npixels`` pixels (model ``Tbound``)."""
        await self.compute(self._op_seconds("bound", npixels), kind="bound", count=npixels)

    async def charge_pack(self, nbytes: int) -> None:
        """Charge packing ``nbytes`` into a message buffer (model ``tpack``)."""
        await self.compute(self._op_seconds("pack", nbytes), kind="pack", count=nbytes)

    # ---- point to point ----------------------------------------------------
    @abc.abstractmethod
    async def send(self, dst: int, payload: Any, *, nbytes: Optional[int] = None, tag: int = 0):
        """Blocking send (rendezvous semantics, like ``MPI_Ssend``)."""

    @abc.abstractmethod
    async def recv(self, src: int, *, tag: int = ANY_TAG) -> Any:
        """Blocking receive from ``src``; returns the payload."""

    @abc.abstractmethod
    async def sendrecv(
        self, peer: int, payload: Any, *, nbytes: Optional[int] = None, tag: int = 0
    ) -> Any:
        """Full-duplex pairwise exchange; returns the peer's payload."""

    # ---- nonblocking -------------------------------------------------------
    @abc.abstractmethod
    async def isend(self, dst: int, payload: Any, *, nbytes: Optional[int] = None, tag: int = 0):
        """Nonblocking send; returns a request completed by :meth:`wait`."""

    @abc.abstractmethod
    async def irecv(self, src: int, *, tag: int = ANY_TAG):
        """Nonblocking receive; returns a request whose payload is
        available after :meth:`wait`.

        Defaults to :data:`~repro.cluster.events.ANY_TAG`, matching
        :meth:`recv` — an untagged nonblocking receive accepts whatever
        ``src`` sends next."""

    @abc.abstractmethod
    async def wait(self, request) -> Any:
        """Block until ``request`` completes; returns its payload (irecv)
        or ``None`` (isend)."""

    async def wait_all(self, requests) -> list:
        """Block until every request completes; returns payloads in order.

        Substrates may override with a bulk primitive (the simulator
        uses a single ``WaitOp`` so overlapping arrivals are priced
        together); this sequential default is timing-equivalent.
        """
        return [await self.wait(request) for request in requests]

    # ---- misc --------------------------------------------------------------
    def now(self) -> float:
        """Monotonic substrate time in seconds.

        Wall-clock on real transports; the simulator overrides this
        with the rank's virtual clock.  Only *differences* are
        meaningful (the zero point is substrate-defined) — this is what
        per-tile completion events stamp their latencies with.
        """
        return time.perf_counter()

    def _check_peer(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise ConfigurationError(
                f"peer rank {rank} out of range for a {self.size}-rank machine"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"
