"""The two digest corpora, run in process, against their recorded digests.

A change that moves a digest on purpose records the new line here and says
why in CHANGES.md.
"""
import cli_corpus
import verdict_corpus

CLI = "1112 b05b49e783b0133d3b6df40cce5b9379d2c613921fd19eb817cc9173f6540e12"
VERDICTS = [
    "tables 1822",
    "exact non-member 1326 member 482 error 14 sha256 3c227f40e1ae6ad980fa6d5a8fd87a3b1d454ab06e10b45d7899e9f92ed76ea5",
    "float non-member 1102 member 720 error 0 sha256 e4fd5db9c698711028e680ca8c2096b514d3882891f6b3da49e3cbb199b8c44e",
]
# which certificate decided each exact verdict: every rung but the unpinned
# interior attempt still decides some
RUNGS = ("rungs simplex-pinned 461 simplex-unpinned 14 interior-pinned 7 interior-unpinned 0"
         " walsh 1300 ray 25 y_B 1 error 14")


def test_cli_and_reversed_verdict_corpora_print_the_recorded_digests(capsys):
    """The verdicts are solved in reverse order and hashed in forward order,
    so matching the recorded digests shows both the same output and that no
    verdict depends on the ones solved before it.  The same run counts the
    exact verdicts by the certificate that decided them."""
    assert cli_corpus.main([]) == 0
    assert verdict_corpus.main(["--reverse", "--rungs"]) == 0
    assert capsys.readouterr().out.splitlines() == [CLI, *VERDICTS, RUNGS]
