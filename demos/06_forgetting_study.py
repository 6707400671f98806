"""
The forgetting study, end to end
================================

One call runs the whole 2x2 design: {few-shot transfer, joint training}
x {plain, fixed-prompt} from a shared pretrained snapshot per seed, then
scores target-language BLEU, legality, and distinct-n on the held-out
target test set.

The phenomenon to watch is the legality column: plain fine-tuning drags
the decoder toward the auxiliary language (forgetting), while the
fixed-prompt variants keep generation inside the target language.

This demo runs the committed reference configuration on a single seed
(a few seconds); the full study is seeds {0, 1, 2} — StudyConfig()
unchanged, or from the shell:

    crossdial study --out runs/study

which also writes report.jsonl / study.json / samples.txt / timing.log
and a resolved-config echo sufficient to re-run it.
"""

import dataclasses

from crossdial import SETTINGS, StudyConfig, generate_synthetic_bilingual, run_forgetting_study

config = StudyConfig(seeds=(0,))
report = run_forgetting_study(config)

# -- per-setting medians (here: the single seed) ---------------------------------------

print(f"{'setting':<14}{'BLEU':>8}{'legality':>10}{'d1':>8}{'d2':>8}")
for name in SETTINGS:
    med = report.medians[name]
    print(f"{name:<14}{med['score']:>8.2f}{med['legality']:>10.1f}{med['d1']:>8.1f}{med['d2']:>8.1f}")

# the committed direction: the fixed-prompt variant of each scenario keeps
# at least the legality of its plain counterpart
print("\nprompted >= plain on median legality in both scenarios:", report.direction_holds())
print("wall time:", f"{report.wall_seconds:.1f}s", "for", len(SETTINGS), "settings x", len(report.config.seeds), "seed(s)")

# -- what the forgetting actually looks like ---------------------------------------------

# the study re-seeds the corpus generator with each run seed, so the
# bundle (and its target vocabulary) is reproducible after the fact
bundle = generate_synthetic_bilingual(dataclasses.replace(config.synthetic, seed=0))
vocab = bundle.tgt_vocabulary

plain = report.runs["MTL"][0]
prompted = report.runs["MTL_pmpt"][0]
leaky = [i for i, hyp in enumerate(plain.hypotheses) if any(t not in vocab for t in hyp.split())]
# worst plain offenders first, among items the prompted run still gets fully legal
leaky.sort(
    key=lambda i: (
        any(t not in vocab for t in prompted.hypotheses[i].split()),
        -sum(t not in vocab for t in plain.hypotheses[i].split()),
    )
)

print("\njoint training without the prompt (tokens outside the target vocabulary, marked *):")
for i in leaky[:3]:
    marked = " ".join(t if t in vocab else f"*{t}*" for t in plain.hypotheses[i].split())
    print("  ", marked)
print("same test items with the fixed prompt:")
for i in leaky[:3]:
    print("  ", prompted.hypotheses[i])
