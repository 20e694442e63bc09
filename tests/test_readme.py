import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # a closing ``` fence right after an example would read as its
    # expected output, so fences become blank lines
    text = "\n".join("" if line.lstrip().startswith("```") else line
                     for line in README.read_text(encoding="utf-8").splitlines())
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0 and failed == 0
