"""Per-layer metrics of a traced run, one group per ``csm`` module.

Set-up metrics (data generation, graph build per state) come from the
set-up span, call counts and chain statistics from the full pipeline pass.
Every timed metric is computed for each round from the spans inside it,
as a time per unit of work; the median over rounds is reported per
training iteration, per reconstruction call, per denoised point, or, for
the ``*_s`` metrics of sampling and Langevin, scaled to one full pipeline
pass (all chains, all Langevin steps).
"""

from __future__ import annotations

import statistics

PER_ROUND_UNITS = {
    "graphs.is_weakly_connected_s": "s",
    "models.fit_self_ms_per_iter": "ms",
    "models.score_entries_s": "s",
    "objectives.forward_ms_per_iter": "ms",
    "objectives.score_entries_per_iter": "count",
    "autodiff.backward_ms_per_iter": "ms",
    "autodiff.adam_ms_per_iter": "ms",
    "autodiff.tensors_per_iter": "count",
    "samplers.run_chain_self_s": "s",
    "samplers.langevin_self_s": "s",
    "exact.reconstruct_self_s": "s",
    "exact.score_fn_calls": "count",
    "exact.score_fn_s": "s",
    "denoise.stein_field_s": "s",
    "denoise.denoise_us_per_point": "us",
    "denoise.ratio_fn_calls_per_point": "count",
}


def _stage(tr, name: str, rows) -> range:
    return tr.subtree(tr.find("stage." + name, rows)[0])


def one_round(tr, work, idx: int, counts: dict) -> dict[str, float]:
    rows = tr.subtree(idx)
    train, mh = _stage(tr, "train", rows), _stage(tr, "mh", rows)
    recon, lang = _stage(tr, "reconstruct", rows), _stage(tr, "langevin", rows)
    den = _stage(tr, "denoise", rows)
    iters, calls, points = work.unit_iters, work.unit_recon, work.unit_points
    per_pass_chains = work.chains / work.unit_chains
    per_pass_steps = work.langevin_steps / work.unit_steps

    objective = sum(tr.duration(i) for i in train if tr.spans[i][0].startswith("objectives."))
    backward = tr.total("autodiff.backward", train)
    adam = tr.total("autodiff.adam", train)
    entries = sum(v for k, v in counts.items() if k.startswith("objectives."))
    return {
        "graphs.is_weakly_connected_s":
            tr.total("graphs.is_weakly_connected", mh) * per_pass_chains,
        "models.fit_self_ms_per_iter":
            (tr.total("models.fit", train) - objective - adam) / iters * 1e3,
        "models.score_entries_s":
            tr.total_under("models.score_entries", "samplers.run_chain", mh) * per_pass_chains,
        "objectives.forward_ms_per_iter": (objective - backward) / iters * 1e3,
        # computed from the batch degrees (and reverse-index counts), not timed
        "objectives.score_entries_per_iter": entries / iters,
        "autodiff.backward_ms_per_iter": backward / iters * 1e3,
        "autodiff.adam_ms_per_iter": adam / iters * 1e3,
        "autodiff.tensors_per_iter": counts.get("autodiff.tensors@train", 0) / iters,
        "samplers.run_chain_self_s": tr.self_time("samplers.run_chain", mh) * per_pass_chains,
        "samplers.langevin_self_s": tr.self_time("samplers.langevin", lang) * per_pass_steps,
        "exact.reconstruct_self_s": tr.self_time("exact.reconstruct_density", recon) / calls,
        "exact.score_fn_calls": len(tr.find("exact.score_fn", recon)) / calls,
        "exact.score_fn_s": tr.total("exact.score_fn", recon) / calls,
        "denoise.stein_field_s": tr.total("denoise.stein_field", lang) * per_pass_steps,
        "denoise.denoise_us_per_point": tr.total("denoise.denoise_sample", den) / points * 1e6,
        "denoise.ratio_fn_calls_per_point": counts.get("denoise.ratio_fn@denoise", 0) / points,
    }


def per_layer(tr, work, round_spans, round_counts) -> dict[str, tuple[float, str]]:
    setup = tr.subtree(tr.find("setup")[0])
    full_mh = _stage(tr, "mh", tr.subtree(tr.find("full")[0]))
    states = work.space.total_states
    rev_spans = tr.find("graphs.reverse_index")
    accepted, proposed, clamped = (int(v) for v in work.chain_stats)
    out = {
        "data.generate_s": (tr.total("data.generate", setup), "s"),
        "graphs.adjacency_us_per_state":
            (tr.self_time("graphs.adjacency", setup) / states * 1e6, "us"),
        "graphs.undirected_view_us_per_state":
            (tr.self_time("graphs.undirected_view", setup) / states * 1e6, "us"),
        "graphs.reverse_index_us_per_state":
            (tr.total("graphs.reverse_index") / len(rev_spans) / states * 1e6, "us"),
        "graphs.is_weakly_connected_calls":
            (len(tr.find("graphs.is_weakly_connected", full_mh)), "count"),
        "samplers.acceptance": (accepted / proposed, "ratio"),
        "samplers.clamped": (clamped, "count"),
    }
    rounds = [one_round(tr, work, i, c) for i, c in zip(round_spans, round_counts)]
    for name, unit in PER_ROUND_UNITS.items():
        out[name] = (statistics.median(r[name] for r in rounds), unit)
    return out
