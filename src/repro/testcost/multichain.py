"""Multi-chain test scheduling (the paper's noted extension).

Section 4: "It has been adopted that all scan chains are connected to
one single scan chain, so that the total test cost of the architecture
equals to the sum of the test cycles of the components.  Of course, in
the case of multiple scan chains, the total test cost will change due to
the scheduling of test patterns."

This module implements that scheduling: per-component test sessions are
assigned to ``k`` parallel test resources (chains / bus groups) with the
classic LPT (longest processing time first) heuristic, whose makespan is
within 4/3 of optimal.  ``k = 1`` reproduces the paper's summation
exactly; the VLIW-style ordering constraints (test X before Y) are
honoured by scheduling in dependency waves.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TestSession:
    """One schedulable component test."""

    __test__ = False            # not a pytest test class, despite its name

    name: str
    cycles: int
    after: tuple[str, ...] = ()     # components that must finish first


@dataclass
class TestSchedule:
    """The scheduled plan."""

    num_resources: int
    makespan: int
    assignment: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    # name -> (resource, start, end)

    def resource_of(self, name: str) -> int:
        return self.assignment[name][0]

    def window_of(self, name: str) -> tuple[int, int]:
        _r, start, end = self.assignment[name]
        return start, end


def schedule_tests(
    sessions: list[TestSession],
    num_resources: int = 1,
) -> TestSchedule:
    """LPT-schedule test sessions onto parallel test resources.

    Precedence (``after``) is handled by waves: a session becomes ready
    once all its predecessors have *finished*; within the ready set, the
    longest session is placed on the earliest-free resource, never before
    its predecessors' completion.
    """
    if num_resources < 1:
        raise ValueError("need at least one test resource")
    by_name = {s.name: s for s in sessions}
    for s in sessions:
        for dep in s.after:
            if dep not in by_name:
                raise ValueError(f"{s.name}: unknown predecessor {dep!r}")

    free_at = [0] * num_resources
    finish: dict[str, int] = {}
    schedule = TestSchedule(num_resources=num_resources, makespan=0)
    remaining = list(sessions)

    while remaining:
        ready = [
            s for s in remaining if all(d in finish for d in s.after)
        ]
        if not ready:
            cyclic = ", ".join(s.name for s in remaining)
            raise ValueError(f"circular test precedence among: {cyclic}")
        ready.sort(key=lambda s: (-s.cycles, s.name))
        session = ready[0]
        remaining.remove(session)

        earliest = max((finish[d] for d in session.after), default=0)
        resource = min(
            range(num_resources),
            key=lambda r: (max(free_at[r], earliest), r),
        )
        start = max(free_at[resource], earliest)
        end = start + session.cycles
        free_at[resource] = end
        finish[session.name] = end
        schedule.assignment[session.name] = (resource, start, end)
        schedule.makespan = max(schedule.makespan, end)
    return schedule


def sessions_from_breakdown(breakdown) -> list[TestSession]:
    """Build sessions from a :class:`~repro.testcost.cost.TestCostBreakdown`.

    The paper's interconnect-before-component order (Sec. 3.2: "it is
    necessary to perform the interconnect test of the sockets and busses
    before carrying out the functional test of the components") becomes
    a precedence edge from each unit's socket session to its functional
    session.
    """
    sessions: list[TestSession] = []
    for unit in breakdown.units:
        if not unit.counted:
            continue
        socket_name = f"{unit.unit_name}.sockets"
        sessions.append(TestSession(socket_name, unit.socket_cost))
        sessions.append(
            TestSession(
                unit.unit_name, unit.component_cost, after=(socket_name,)
            )
        )
    return sessions
