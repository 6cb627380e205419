"""Closed-form predictions for complete bipartite class sizes.

For classes of sizes m < n the index is r or r+1 where r is the least
radix with n <= r^m; the switch happens at a pivot r^m - t just below
r^m.  At the pivot the t column vectors left out have the same
symmetries as the n kept ones, so the value there comes from the much
smaller K_{t,m}.
"""

from disorient import (complete_bipartite_graph, dprime, dprime_kmn,
                       od_extremes, od_minus_kmn)

for m, n in [(2, 3), (2, 4), (3, 5), (3, 6), (4, 20)]:
    p = dprime_kmn(m, n)
    q = od_minus_kmn(m, n)
    print(f"K_{{{m},{n}}}: {p.to_json()}")
    print(f"          minimum over orientations: {q.to_json()}")

# pivot sizes far past any search, each settled by a smaller K_{t,m}
for m, n, t in [(4, 14, 2), (5, 29, 3)]:
    print(f"pivot K_{{{m},{n}}} through K_{{{t},{m}}}:",
          dprime_kmn(m, n).to_json(), "from", dprime_kmn(t, m).to_json())

# the predictions agree with a full sweep on a desk-sized example
g = complete_bipartite_graph(2, 4)
res = od_extremes(g)
print("swept K_{2,4}: index", dprime(g).value,
      "extremes", (res.od_minus, res.od_plus))
print("predicted    : index", dprime_kmn(2, 4).value,
      "minimum", od_minus_kmn(2, 4).value)
