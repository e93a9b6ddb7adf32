"""Code generation for the simulator's compiled tier.

:func:`compile_block` turns one hot block of a decoded program (see
:mod:`repro.tta.simulator`) into one Python function that runs a whole
entry of the block: every cycle in the interpreter's order (land,
sample, plain commit, trigger commit), with nothing looked up at run
time.  The simulator imports this module only when a first block gets
hot, so a run that never compiles pays nothing for it.

The function ``step(c)`` runs the entry that starts at cycle ``c`` and
returns ``(next pc, squashed moves, triggers)``.  Unit input registers,
bus and RF read-path last values, result registers and toggle tallies
live in locals: loaded on entry, written back on exit.  Most of them
never need a statement: the generator tracks, per slot, which local or
constant holds its value (a local is assigned once, or once before and
once inside a guarded branch), so a move into an operand register or
onto a bus only renames.  A toggle between two constants is summed
while generating; every other toggle is added to its slot's local tally
where it happens.  Register files, guards and data memory are written
in place.  A result that lands inside the block is assigned directly;
one that crosses the block edge is queued in the simulator's ``due``
map, as are the results due in the block's first cycles from before it.

The only raising sites are an eq. 3 read of a result register that may
still be empty and, when the width can address past ``DMEM_WORDS``, an
LSU address.  Each calls ``fault`` with the function's locals; it writes
the slot values and tallies of that point back, queues the results
still in flight, records the faulting offset (and the jump target, if
the jump has committed) in ``block.stop[0]`` and raises the interpreter's
error.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from repro.tta.simulator import (
    _JUMP,
    _LSU_OP,
    DMEM_WORDS,
    SimulationError,
    TTASimulator,
    _Block,
)

_by_unit = itemgetter(0)


def compile_block(sim: TTASimulator, block: _Block) -> Callable:
    """The generated function that runs one entry of ``block``."""
    traced = sim.activity is not None
    code = sim._code
    entry, length = block.entry, block.length
    regs, results, guards = sim._regs, sim._results, sim.guards
    result_ids = sim._result_ids
    toggles = sim._toggles if traced else None
    due = sim._due
    stop = block.stop          # not ``block``: its function must not refer back
    latencies = [unit.spec.latency for unit in sim._fus]
    arrivals = min(max(latencies, default=1), length)  # cycles results reach

    namespace: dict[str, object] = {}
    bound: dict[int, str] = {}

    def bind(obj, prefix: str) -> str:
        name = bound.get(id(obj))
        if name is None:
            name = bound[id(obj)] = f"{prefix}{len(bound)}"
            namespace[name] = obj
        return name

    # A value is an int (a constant) or the name of the local holding it.
    cur: dict[int, int | str] = {}     # regs slot -> its value
    loads: dict[int, None] = {}        # regs slots read before assigned
    changed: dict[int, None] = {}      # regs slots assigned
    res: dict[int, str] = {}           # result register -> its value
    static: dict[int, int] = {}        # toggle slot -> toggles summed here
    tallies: dict[int, None] = {}      # toggle slots tallied in ``t<slot>``
    fresh = iter(range(1 << 30))       # numbers for single-assignment names
    landings: dict[int, list] = {}     # offset -> [(unit, q name, guarded)]
    inflight: list[tuple] = []         # (q name, landing offset, unit)
    maybe: list[str] = []              # q names of guarded triggers
    sites: list[tuple] = []            # per raising site: what it restores
    body: list[str] = []
    emit = body.append

    for k in range(length):
        sample, _plain, launches = code[entry + k][:3]
        res.update((s[5], f"r{s[5]}") for s in sample if s[4] is results)
        res.update(
            (fu, f"r{fu}") for _b, _p, kind, operation, fu, latency, _o in launches
            if kind != _JUMP and operation is not None and k + latency < length
        )
    units = list(res)                  # the ``r<unit>`` locals
    filled = {fu for fu in units if results[fu] is not None}

    def value(slot: int) -> int | str:
        if slot not in cur:
            loads[slot] = None
            cur[slot] = f"s{slot}"
        return cur[slot]

    def toggle(pad: str, slot: int, old, new) -> None:
        """Count the toggles of ``slot`` going from ``old`` to ``new``:
        summed here between constants, else in its ``t`` tally."""
        if not traced:
            return
        if type(old) is int and type(new) is int:
            if pad == "    ":
                static[slot] = static.get(slot, 0) + (old ^ new).bit_count()
                return
            emit(f"{pad}t{slot} += {(old ^ new).bit_count()}")
        else:
            emit(f"{pad}t{slot} += ({old} ^ {new}).bit_count()")
        tallies[slot] = None

    def assign(pad: str, slot: int, new) -> None:
        """Give ``slot`` a new value; in a branch, in its settled local."""
        changed[slot] = None
        if pad == "    ":
            cur[slot] = new
        else:
            emit(f"{pad}{cur[slot]} = {new}")

    def settle_slot(slot: int) -> None:
        """Hold ``slot``'s value in a new local, before a branch."""
        name = f"u{next(fresh)}"
        emit(f"    {name} = {value(slot)}")
        cur[slot] = name

    def site(pad: str, condition: str, offset: int, message) -> None:
        emit(f"{pad}if {condition}:")
        emit(f"{pad}    fault({len(sites)}, locals())")
        sites.append((offset, message, dict(cur), dict(res), dict(static)))

    static_triggers = 0
    guarded_moves = guarded_triggers = False
    jump = None
    moves = 0
    for k in range(length):
        pc = entry + k
        sample, plain, launches = code[pc][:3]
        at = "c" if k == 0 else f"c + {k}"
        # Landing: results queued before the entry, then the block's own.
        if 0 < k < arrivals:
            emit(f"    x = pop({at}, None)")
            emit("    if x is not None:")
            emit("        land(x)")
            for fu in units:
                if latencies[fu] > k:
                    emit(f"        r{fu} = results[{fu}]")
        for fu, q, guarded in sorted(landings.pop(k, ()), key=_by_unit):
            port = result_ids[fu]
            if guarded:
                name = f"u{next(fresh)}"
                emit(f"    {name} = {res[fu]}")
                res[fu] = name
            old = res[fu] if fu in filled else f"({res[fu]} or 0)"
            if guarded:
                emit(f"    if {q} is not None:")
                if port is not None:
                    toggle("        ", port, old, q)
                emit(f"        {name} = {q}")
            else:
                if port is not None:
                    toggle("    ", port, old, q)
                res[fu] = q
                filled.add(fu)

        values = {}                    # bus -> (value, guarded)
        for bus, guard, invert, live, src, index, rf in sample:
            v = f"v{moves}"
            moves += 1
            touched = [slot for slot in (rf, bus) if slot is not None and traced]
            pad = "    "
            if guard is not None:
                guarded_moves = True
                for slot in touched:
                    settle_slot(slot)
                emit(f"    if {'not ' if invert else ''}guards[{guard}]:")
                pad = "        "
            if type(src) is tuple:
                val = src[index]
            elif src is results and index in filled and res[index] != f"r{index}":
                val = res[index]       # a landed result: its own local
            else:
                if src is results:
                    expr = res[index]
                elif src is guards:
                    expr = f"guards[{index}]"
                else:
                    expr = f"{bind(src, 'm')}[{index}]"
                emit(f"{pad}{v} = {expr}")
                val = v
                if src is results and index not in filled:
                    read = str(sim.program.instructions[pc].slots[bus].src)
                    site(
                        pad, f"{v} is None", k,
                        lambda names, offset=k, read=read: (
                            f"cycle {names['c'] + offset}: read of {read} "
                            "before any result (eq. 3)"
                        ),
                    )
            if guard is not None and val != v:
                emit(f"{pad}{v} = {val}")
                val = v
            if traced and live is not None:
                emit(f"{pad}if not lives[{live}]:")
                emit(f"{pad}    live_firsts[{live}] = {at}")
                emit(f"{pad}lives[{live}] += 1")
            for slot in touched:
                toggle(pad, slot, value(slot), val)
                assign(pad, slot, val)
            if guard is not None:
                emit("    else:")
                emit(f"        {v} = None")
                emit("        sq += 1")
            values[bus] = (val, guard is not None)

        for bus, dst, index, dmask, slot in plain:
            val, guarded = values[bus]
            if dst is regs and guarded:
                settle_slot(index)
            pad = "    "
            if guarded:
                emit(f"    if {val} is not None:")
                pad = "        "
            new = val
            if dmask == 1:             # a guard bit
                if type(val) is int:
                    new = val & 1
                else:
                    new = f"g{next(fresh)}"
                    emit(f"{pad}{new} = {val} & 1")
            if dst is regs:
                toggle(pad, index, value(index), new)
                assign(pad, index, new)
                continue
            target = (
                f"guards[{index}]" if dst is guards
                else f"{bind(dst, 'm')}[{index}]"
            )
            toggle(pad, slot, target, new)
            emit(f"{pad}{target} = {new}")

        for bus, port, kind, operation, fu, latency, operand in launches:
            val, guarded = values[bus]
            pad = "    "
            if guarded:
                guarded_triggers = True
                settle_slot(port)
                emit(f"    if {val} is not None:")
                emit("        tr += 1")
                pad = "        "
            else:
                static_triggers += 1
            toggle(pad, port, value(port), val)
            assign(pad, port, val)
            if kind == _JUMP:
                end = len(code) + 1
                target = val % end if type(val) is int else f"{val} % {end}"
                emit(f"{pad}jt = {target}")
                jump = (val, guarded)
                continue
            if kind == _LSU_OP:
                if sim._width_mask >= DMEM_WORDS:
                    site(
                        pad, f"{val} >= {DMEM_WORDS}", k,
                        lambda names, val=val: (
                            "data address "
                            f"{val if type(val) is int else names[val]:#x} "
                            "out of range"
                        ),
                    )
                if operation is None:
                    emit(f"{pad}dmem[{val}] = {value(operand)}")
                    continue
                result = f"{bind(operation, 'f')}(get({val}, 0))"
            else:
                result = f"{bind(operation, 'f')}({value(operand)}, {val})"
            if k + latency < length:
                q = f"q{len(inflight)}"
                inflight.append((q, k + latency, fu))
                if guarded:
                    maybe.append(q)
                landings.setdefault(k + latency, []).append((fu, q, guarded))
                emit(f"{pad}{q} = {result}")
            else:
                queue = f"due.setdefault(c + {k + latency}, [])"
                emit(f"{pad}{queue}.append(({fu}, {result}))")

    jump_value, jump_guarded = jump
    fall = entry + length
    head = ["    x = pop(c, None)", "    if x is not None:", "        land(x)"]
    head += [f"    s{slot} = regs[{slot}]" for slot in loads]
    head += [f"    r{fu} = results[{fu}]" for fu in units]
    zeros = [f"t{slot}" for slot in tallies]
    zeros += ["sq"] * guarded_moves + ["tr"] * guarded_triggers
    if zeros:
        head.append(f"    {' = '.join(zeros)} = 0")
    if maybe:
        head.append(f"    {' = '.join(maybe)} = None")
    tail = [f"    regs[{slot}] = {cur[slot]}" for slot in changed]
    tail += [f"    results[{fu}] = {res[fu]}" for fu in units]
    counted = {slot: [] for slot in (*tallies, *static)}
    for slot in tallies:
        counted[slot].append(f"t{slot}")
    for slot, count in static.items():
        counted[slot].append(str(count))
    for slot, parts in counted.items():
        tail.append(f"    toggles[{slot}] += {' + '.join(parts)}")
    target = f"jt if {jump_value} is not None else {fall}" if jump_guarded else "jt"
    squashed = "sq" if guarded_moves else "0"
    fired = f"{static_triggers} + tr" if guarded_triggers else str(static_triggers)
    tail.append(f"    return {target}, {squashed}, {fired}")

    def land(landing: list) -> None:
        """Land results queued before the entry, as the interpreter does."""
        if len(landing) > 1:
            landing.sort(key=_by_unit)
        for fu, result in landing:
            port = result_ids[fu]
            if traced and port is not None:
                toggles[port] += ((results[fu] or 0) ^ result).bit_count()
            results[fu] = result

    def fault(number: int, names: dict) -> None:
        """Write back the state of an entry that faults at site ``number``,
        queue its results still in flight, record where it stopped and
        raise."""
        offset, message, slot_values, unit_values, summed = sites[number]

        def read(val):
            return val if type(val) is int else names[val]

        for slot, val in slot_values.items():
            regs[slot] = read(val)
        for fu, val in unit_values.items():
            results[fu] = read(val)
        for slot in tallies:
            toggles[slot] += names[f"t{slot}"]
        for slot, count in summed.items():
            toggles[slot] += count
        c = names["c"]
        for q, landing, fu in inflight:
            result = names.get(q)
            if result is not None and landing > offset:
                due.setdefault(c + landing, []).append((fu, result))
        stop[0] = (offset, names.get("jt"))
        raise SimulationError(message(names))

    namespace.update(
        regs=regs, results=results, due=due, pop=due.pop, guards=guards,
        dmem=sim.dmem, get=sim.dmem.get, land=land, fault=fault,
    )
    if traced:
        namespace.update(
            toggles=toggles, lives=sim._lives, live_firsts=sim._live_firsts
        )
    params = ", ".join(f"{name}={name}" for name in namespace)
    source = "\n".join([f"def step(c, {params}):", *head, *body, *tail, ""])
    exec(compile(source, f"<block {entry}-{fall - 1}>", "exec"), namespace)
    # Popped, so the function's globals do not refer back to it.
    return namespace.pop("step")
