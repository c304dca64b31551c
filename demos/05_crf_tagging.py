"""Linear-chain CRF in log space: partition function, gold likelihood,
and Viterbi decoding, cross-checked by brute-force enumeration."""

import itertools

import numpy as np

from lexner.autograd import Tensor
from lexner.crf import CrfParams, log_partition, nll_loss, viterbi_decode
from lexner.data import make_tagset

tagset = make_tagset(["PER"])  # O, B-PER, I-PER
k = len(tagset)
rng = np.random.default_rng(0)

params = CrfParams.init(d_c=6, num_labels=k, rng=rng)
emissions = rng.standard_normal((4, k))
trans = params.transitions

print("tagset:", tagset)
print("emissions (4 positions x 3 labels):")
print(np.round(emissions, 2))

logz = float(log_partition(Tensor(emissions), trans).data)
print(f"\nlog partition over {k}**4 = {k**4} sequences: {logz:.6f}")

# brute force agrees
scores = []
t = trans.data
for seq in itertools.product(range(k), repeat=4):
    s = t[k, seq[0]] + t[seq[-1], k]
    s += sum(emissions[i, y] for i, y in enumerate(seq))
    s += sum(t[a, b] for a, b in zip(seq, seq[1:]))
    scores.append(s)
scores = np.array(scores)
brute = np.log(np.exp(scores - scores.max()).sum()) + scores.max()
print(f"enumeration gives:                 {brute:.6f}")

gold = np.array([tagset.index(x) for x in ["O", "B-PER", "I-PER", "O"]])
loss = float(nll_loss(Tensor(emissions), trans, gold).data)
print(f"\ngold sequence NLL: {loss:.6f}  (probability {np.exp(-loss):.4f})")

best = viterbi_decode(emissions, trans.data)
print("Viterbi path:", [tagset[i] for i in best])

# paths run from a virtual START to a virtual STOP: the table is indexed
# [from, to], with START as the last row and STOP as the last column
print("\ntransition table (START row last, STOP column last):")
print(np.round(trans.data, 2))
