#!/usr/bin/env python3
"""ASCII rendering of the Fig. 2 / Fig. 8 solution space.

Plots the explored architectures in the (area, execution time) plane —
dots for dominated points, '#' for the Pareto frontier — and annotates
the frontier with its test costs, all in plain text.

Run:  python examples/pareto_plot.py
"""

from repro import StudySpec, pareto_front, run_study

WIDTH, HEIGHT = 72, 24


def ascii_scatter(points, pareto):
    xs = [p.area for p in points]
    ys = [p.cycles for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    pareto_set = {id(p) for p in pareto}

    def cell(p):
        col = int((p.area - x0) / (x1 - x0 + 1e-9) * (WIDTH - 1))
        row = int((p.cycles - y0) / (y1 - y0 + 1e-9) * (HEIGHT - 1))
        return row, col

    for p in points:
        row, col = cell(p)
        if grid[row][col] == " ":
            grid[row][col] = "."
    for p in pareto:
        row, col = cell(p)
        grid[row][col] = "#"

    lines = [f"cycles {y0:>8} (top) .. {y1} (bottom)   area -> "
             f"{x0:.0f} .. {x1:.0f}"]
    lines.append("+" + "-" * WIDTH + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * WIDTH + "+")
    lines.append("'.' explored   '#' Pareto frontier")
    return "\n".join(lines)


def main():
    # The test_cost objective makes the study attach Fig. 8's third
    # axis to the 2-D frontier automatically.
    study = run_study(StudySpec(
        name="pareto-plot", workloads=("crypt",), space="crypt",
        objectives=("area", "cycles", "test_cost"),
    ))
    result = study.single.result
    feasible = result.feasible_points
    pareto = pareto_front(result.points, ("area", "cycles"))
    print(f"{len(feasible)} feasible architectures, "
          f"{len(pareto)} on the frontier\n")
    print(ascii_scatter(feasible, pareto))

    print("\nfrontier with test costs (Fig. 8's third axis):")
    for p in sorted(pareto, key=lambda q: q.area):
        bar = "*" * max(1, p.test_cost // 400)
        print(f"  {p.label:<34} f_t={p.test_cost:>6} {bar}")


if __name__ == "__main__":
    main()
